/**
 * @file
 * Minimal 3-vector used by the NeRF pipeline (positions, directions, RGB).
 */
#ifndef FLEXNERFER_NERF_VEC3_H_
#define FLEXNERFER_NERF_VEC3_H_

#include <cmath>

namespace flexnerfer {

/** Plain 3-component vector of doubles. */
struct Vec3 {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
    Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
    Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
    Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }

    Vec3&
    operator+=(const Vec3& o)
    {
        x += o.x;
        y += o.y;
        z += o.z;
        return *this;
    }

    double Dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
    double Length() const { return std::sqrt(Dot(*this)); }

    Vec3
    Normalized() const
    {
        const double len = Length();
        return len > 0.0 ? *this / len : Vec3{0.0, 0.0, 1.0};
    }
};

/** Component-wise absolute value. */
inline Vec3
Abs(const Vec3& v)
{
    return {std::fabs(v.x), std::fabs(v.y), std::fabs(v.z)};
}

/** Component-wise maximum. */
inline Vec3
Max(const Vec3& a, const Vec3& b)
{
    return {std::fmax(a.x, b.x), std::fmax(a.y, b.y), std::fmax(a.z, b.z)};
}

}  // namespace flexnerfer

#endif  // FLEXNERFER_NERF_VEC3_H_
