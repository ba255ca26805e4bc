/**
 * @file
 * Message-size model for the cross-host cluster shape.
 *
 * The simulated cluster keeps plans, prepared handles, and plan caches
 * strictly shard-local — only *descriptions* cross the simulated link:
 * scene requests and render results. The link model
 * (serve/transport.h) needs only each message's size, so this header
 * prices a message as the length-prefixed binary frame it would travel
 * in, without building it:
 *
 *     [magic u32][version u16][type u8][reserved u8][payload u32][payload...]
 *
 * Payloads are fixed-width little-endian fields; a string is a u32
 * length followed by its bytes. Every size is a pure function of its
 * argument, so `SimTransport::Stats::bytes` is deterministic.
 */
#ifndef FLEXNERFER_SERVE_WIRE_H_
#define FLEXNERFER_SERVE_WIRE_H_

#include <cstddef>

#include "serve/render_service.h"

namespace flexnerfer {
namespace wire {

/// Fixed frame header size in bytes.
inline constexpr std::size_t kHeaderSize = 12;

static_assert(sizeof(FrameCost) == 10 * sizeof(double),
              "ResultBytes counts FrameCost as 10 eight-byte fields");

/// Scene request: the name (u32 length + bytes), then tier, priority,
/// deadline and arrival at 8 bytes each.
inline std::size_t
RequestBytes(const SceneRequest& request)
{
    return kHeaderSize + 4 + request.scene.size() + 4 * 8;
}

/// Render result: status u8, the name (u32 length + bytes), tier, the
/// FrameCost, queue wait, latency and batch elements at 8 bytes each.
inline std::size_t
ResultBytes(const RenderResult& result)
{
    return kHeaderSize + 1 + 4 + result.scene.size() + 8 +
           sizeof(FrameCost) + 3 * 8;
}

}  // namespace wire
}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_WIRE_H_
