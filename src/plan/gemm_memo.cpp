#include "plan/gemm_memo.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace flexnerfer {
namespace {

/** A double's bit pattern (injective, unlike operator==). */
std::uint64_t
Bits(double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** An int's 32 bits, zero-extended (injective for any int value). */
std::uint64_t
Bits(int v)
{
    return static_cast<std::uint32_t>(v);
}

std::uint64_t
Bit(bool v, int position)
{
    return static_cast<std::uint64_t>(v) << position;
}

}  // namespace

GemmMemo::ConfigWords
GemmMemo::PackConfig(const GemmEngineConfig& config)
{
    // One field per bit range, every bit defined: small fields share
    // the first two words, each double gets a word of its own.
    // A new GemmEngineConfig field must join these words.
    return ConfigWords{{
        static_cast<std::uint64_t>(config.precision) |
            static_cast<std::uint64_t>(config.noc_style) << 8 |
            Bit(config.support_sparsity, 16) |
            Bit(config.use_flex_codec, 17) | Bit(config.use_clb, 18) |
            Bit(config.detailed, 19) | Bit(config.compute_output, 20) |
            Bit(config.stream_a_from_dram, 21) |
            Bit(config.write_c_to_dram, 22) |
            Bit(config.noc.feedback, 23) | Bits(config.array_dim) << 32,
        Bits(config.noc.leaves) | Bits(config.mesh.nodes) << 32,
        Bits(config.clock_ghz),
        Bits(config.fetch_bytes_per_cycle),
        Bits(config.codec_bytes_per_cycle),
        Bits(config.dram_bandwidth_gb_s),
        Bits(config.dram_energy_pj_per_byte),
        Bits(config.sram_read_energy_pj_per_byte),
        Bits(config.codec_energy_pj_per_byte),
        Bits(config.noc.hop_energy_pj),
        Bits(config.noc.hop_energy_2x2_pj),
        Bits(config.noc.buffer_read_energy_pj),
        Bits(config.mesh.hop_energy_pj),
        Bits(config.mesh.buffer_read_energy_pj),
    }};
}

GemmMemo::ShapeWords
GemmMemo::PackShape(const GemmShape& shape)
{
    // A new GemmShape field must join these words.
    return ShapeWords{{
        static_cast<std::uint64_t>(shape.m),
        static_cast<std::uint64_t>(shape.k),
        static_cast<std::uint64_t>(shape.n),
        Bits(shape.density_a),
        Bits(shape.density_b),
        Bits(shape.structured_prune_b),
    }};
}

GemmMemo::Key
GemmMemo::MakeKey(const GemmEngineConfig& config, const GemmShape& shape)
{
    const ConfigWords config_words = PackConfig(config);
    const ShapeWords shape_words = PackShape(shape);
    Key key;
    static_assert(sizeof(key.words) ==
                      sizeof(config_words) + sizeof(shape_words),
                  "the key is the config's words, then the shape's");
    std::copy(config_words.begin(), config_words.end(), key.words.begin());
    std::copy(shape_words.begin(), shape_words.end(),
              key.words.begin() + config_words.size());
    return key;
}

bool
GemmMemo::SameRun(const GemmEngineConfig& a_config, const GemmShape& a_shape,
                  const GemmEngineConfig& b_config, const GemmShape& b_shape)
{
    return PackShape(a_shape) == PackShape(b_shape) &&
           PackConfig(a_config) == PackConfig(b_config);
}

std::size_t
GemmMemo::KeyHash::operator()(const Key& key) const
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const std::uint64_t word : key.words) {
        h ^= word;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 32;
    }
    return static_cast<std::size_t>(h);
}

GemmResult
GemmMemo::RunFromShape(const GemmEngine& engine, const GemmShape& shape)
{
    const Key key = MakeKey(engine.config(), shape);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = results_.find(key);
        if (it != results_.end()) {
            ++hits_;
            return it->second;
        }
    }
    // Compute outside the lock: engine runs dominate, and purity makes a
    // racing duplicate harmless (identical values; first insert wins).
    // Only the successful insert counts as a miss — the insert loser
    // counts a hit — so misses always equal the entry count.
    GemmResult result = engine.RunFromShape(shape);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto inserted = results_.emplace(key, std::move(result));
        if (inserted.second) {
            ++misses_;
        } else {
            ++hits_;
        }
        return inserted.first->second;
    }
}

std::uint64_t
GemmMemo::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
GemmMemo::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t
GemmMemo::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return results_.size();
}

}  // namespace flexnerfer
