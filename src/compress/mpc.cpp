#include "compress/mpc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "compress/bit_transpose.hpp"

namespace gcmpi::comp {

namespace {

constexpr std::uint32_t kMagic = 0x4d504331u;  // "MPC1"

// Header layout (little-endian u32 words):
//   [0] magic  [1] n_values  [2] dimensionality  [3] chunk_values
//   [4] n_chunks  [5 .. 5+n_chunks) compressed words per chunk
constexpr std::size_t kFixedHeaderWords = 5;

[[nodiscard]] std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }

/// Map a signed residual so that small magnitudes have small unsigned
/// values (zig-zag). This plays the role of MPC's residual conditioning:
/// it makes the high bit planes of near-predictable data all zero so the
/// transpose + zero-elimination stages can delete them.
[[nodiscard]] std::uint32_t zigzag(std::uint32_t r) {
  const std::int32_t s = static_cast<std::int32_t>(r);
  return (static_cast<std::uint32_t>(s) << 1) ^ static_cast<std::uint32_t>(s >> 31);
}

[[nodiscard]] std::uint32_t unzigzag(std::uint32_t z) {
  return (z >> 1) ^ (~(z & 1u) + 1u);
}

/// Compress one chunk of `n` values (n <= chunk capacity) into u32 words.
std::size_t compress_chunk(const std::uint32_t* bits, std::size_t n, int dim,
                           std::uint32_t* out) {
  const auto d = static_cast<std::size_t>(dim);
  std::size_t out_words = 0;
  std::uint32_t tile[32];
  for (std::size_t base = 0; base < n; base += 32) {
    // Stage 1+2: dimension-stride residual, zig-zag.
    if (base >= d && base + 32 <= n) {
      // Interior tile: the predictor never clamps and there is no tail
      // padding, so the loop has no data-dependent branches to block
      // vectorization.
      for (std::size_t j = 0; j < 32; ++j) {
        tile[j] = zigzag(bits[base + j] - bits[base + j - d]);
      }
    } else {
      for (std::size_t j = 0; j < 32; ++j) {
        const std::size_t i = base + j;
        if (i < n) {
          const std::uint32_t prev = i >= d ? bits[i - d] : 0u;
          tile[j] = zigzag(bits[i] - prev);
        } else {
          tile[j] = 0;  // tail padding, elided by zero elimination
        }
      }
    }
    // All-zero tile (constant or slowly-varying data hits this constantly):
    // the transpose of zero is zero, so the tile is just an empty mask.
    std::uint32_t any = 0;
    for (std::size_t j = 0; j < 32; ++j) any |= tile[j];
    if (any == 0) {
      out[out_words++] = 0;
      continue;
    }
    // Stage 3: 32x32 bit transpose (SSE2 byte regroup + movemask, in place).
    bit_transpose32_fast(tile);
    // Stage 4: zero elimination behind a presence mask. Both loops are
    // branchless: the mask accumulates comparison results, and the scatter
    // always stores but only advances past kept words (the dead store is
    // overwritten by the next kept word or ignored by the word count).
    std::uint32_t mask = 0;
    for (int b = 0; b < 32; ++b) {
      mask |= static_cast<std::uint32_t>(tile[b] != 0) << b;
    }
    out[out_words++] = mask;
    for (int b = 0; b < 32; ++b) {
      out[out_words] = tile[b];
      out_words += tile[b] != 0;
    }
  }
  return out_words;
}

/// Decode one chunk of `n` values from `in_words` u32 words. `in` must be
/// readable one word past `in_words`: the zero-word expansion reads
/// in[pos] unconditionally and masks it away for elided words.
void decompress_chunk(const std::uint32_t* in, std::size_t in_words, std::size_t n,
                      int dim, std::uint32_t* bits) {
  const auto d = static_cast<std::size_t>(dim);
  std::size_t pos = 0;
  std::uint32_t tile[32];
  for (std::size_t base = 0; base < n; base += 32) {
    if (pos >= in_words) throw std::runtime_error("MPC: truncated chunk");
    const std::uint32_t mask = in[pos++];
    if (mask == 0) {
      // Empty tile: every residual is zero, so each value is its predictor.
      for (std::size_t j = 0; j < 32; ++j) {
        const std::size_t i = base + j;
        if (i >= n) break;
        bits[i] = i >= d ? bits[i - d] : 0u;
      }
      continue;
    }
    // Bound the whole tile once, then expand branchlessly: a kept word is
    // in[pos] and advances pos; an elided word reads in[pos] (at most
    // in[in_words], the guard word) and masks it to zero.
    if (static_cast<std::size_t>(std::popcount(mask)) > in_words - pos) {
      throw std::runtime_error("MPC: truncated chunk");
    }
    for (int b = 0; b < 32; ++b) {
      const std::uint32_t bit = (mask >> b) & 1u;
      tile[b] = in[pos] & (0u - bit);
      pos += bit;
    }
    bit_transpose32_fast(tile);  // involution: same transpose inverts
    if (base >= d && base + 32 <= n) {
      for (std::size_t j = 0; j < 32; ++j) {
        const std::size_t i = base + j;
        bits[i] = unzigzag(tile[j]) + bits[i - d];
      }
    } else {
      for (std::size_t j = 0; j < 32; ++j) {
        const std::size_t i = base + j;
        if (i >= n) break;
        const std::uint32_t prev = i >= d ? bits[i - d] : 0u;
        bits[i] = unzigzag(tile[j]) + prev;
      }
    }
  }
  if (pos != in_words) throw std::runtime_error("MPC: trailing chunk bytes");
}

}  // namespace

MpcCodec::MpcCodec(int dimensionality, std::size_t chunk_values)
    : dim_(dimensionality), chunk_(chunk_values) {
  if (dim_ < 1 || dim_ > 32) throw std::invalid_argument("MpcCodec: dimensionality must be 1..32");
  if (chunk_ == 0 || chunk_ % 32 != 0) {
    throw std::invalid_argument("MpcCodec: chunk_values must be a positive multiple of 32");
  }
}

std::size_t MpcCodec::max_compressed_bytes(std::size_t n_values) const {
  const std::size_t chunks = n_values == 0 ? 0 : chunk_count(n_values);
  // Each 32-value tile costs at most 1 mask word + 32 payload words, and a
  // partial tail tile in every chunk still pays the full 33 words.
  const std::size_t tiles = (n_values + 31) / 32 + chunks;
  return (kFixedHeaderWords + chunks + 33 * tiles) * 4;
}

std::size_t MpcCodec::compress(std::span<const float> in, std::span<std::uint8_t> out) const {
  const std::size_t n = in.size();
  if (out.size() < max_compressed_bytes(n)) {
    throw std::invalid_argument("MpcCodec::compress: output buffer too small");
  }
  const std::size_t chunks = n == 0 ? 0 : chunk_count(n);
  std::uint8_t* base = out.data();
  store_u32(base + 0, kMagic);
  store_u32(base + 4, static_cast<std::uint32_t>(n));
  store_u32(base + 8, static_cast<std::uint32_t>(dim_));
  store_u32(base + 12, static_cast<std::uint32_t>(chunk_));
  store_u32(base + 16, static_cast<std::uint32_t>(chunks));

  std::uint8_t* size_table = base + kFixedHeaderWords * 4;
  std::uint8_t* payload = size_table + chunks * 4;

  std::vector<std::uint32_t> in_bits(chunk_);
  std::vector<std::uint32_t> scratch(chunk_ + chunk_ / 32 + 1);
  std::size_t payload_words = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_;
    const std::size_t count = std::min(chunk_, n - begin);
    std::memcpy(in_bits.data(), in.data() + begin, count * 4);
    const std::size_t words = compress_chunk(in_bits.data(), count, dim_, scratch.data());
    store_u32(size_table + c * 4, static_cast<std::uint32_t>(words));
    std::memcpy(payload + payload_words * 4, scratch.data(), words * 4);
    payload_words += words;
  }
  return (kFixedHeaderWords + chunks + payload_words) * 4;
}

std::size_t MpcCodec::encoded_values(std::span<const std::uint8_t> in) {
  if (in.size() < kFixedHeaderWords * 4 || load_u32(in.data()) != kMagic) {
    throw std::invalid_argument("MpcCodec: bad header");
  }
  return load_u32(in.data() + 4);
}

std::size_t MpcCodec::decompress(std::span<const std::uint8_t> in, std::span<float> out) const {
  if (in.size() < kFixedHeaderWords * 4) throw std::invalid_argument("MpcCodec: truncated input");
  const std::uint8_t* base = in.data();
  if (load_u32(base) != kMagic) throw std::invalid_argument("MpcCodec: bad magic");
  const std::size_t n = load_u32(base + 4);
  const int dim = static_cast<int>(load_u32(base + 8));
  const std::size_t chunk = load_u32(base + 12);
  const std::size_t chunks = load_u32(base + 16);
  if (dim < 1 || dim > 32 || chunk == 0 || chunk % 32 != 0) {
    throw std::invalid_argument("MpcCodec: corrupt header");
  }
  if (chunks != (n + chunk - 1) / chunk) {
    throw std::invalid_argument("MpcCodec: inconsistent chunk count");
  }
  if (out.size() < n) throw std::invalid_argument("MpcCodec::decompress: output too small");
  if (in.size() < (kFixedHeaderWords + chunks) * 4) {
    throw std::invalid_argument("MpcCodec: truncated size table");
  }

  const std::uint8_t* size_table = base + kFixedHeaderWords * 4;
  const std::uint8_t* payload = size_table + chunks * 4;
  const std::size_t payload_offset = (kFixedHeaderWords + chunks) * 4;

  // Buffers are sized by the largest chunk the output can hold, not by the
  // header's chunk_values, so a corrupt header cannot demand a huge
  // allocation. A chunk of `span` values is at most one mask plus 32 words
  // per tile; scratch keeps one guard word past that for the branchless
  // zero-word expansion.
  const std::size_t span = std::min(chunk, n);
  const std::size_t max_words = (span + 31) / 32 * 33;
  std::vector<std::uint32_t> scratch(max_words + 1);
  std::vector<std::uint32_t> out_bits(span);
  std::size_t offset_words = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t words = load_u32(size_table + c * 4);
    if (words > max_words) throw std::runtime_error("MpcCodec: corrupt chunk size");
    const std::size_t begin = c * chunk;
    const std::size_t count = std::min(chunk, n - begin);
    if (payload_offset + (offset_words + words) * 4 > in.size()) {
      throw std::runtime_error("MpcCodec: truncated payload");
    }
    std::memcpy(scratch.data(), payload + offset_words * 4, words * 4);
    decompress_chunk(scratch.data(), words, count, dim, out_bits.data());
    std::memcpy(out.data() + begin, out_bits.data(), count * 4);
    offset_words += words;
  }
  return n;
}

int MpcCodec::tune_dimensionality(std::span<const float> data, std::size_t sample_values) {
  const std::size_t n = std::min(sample_values, data.size());
  if (n < 64) return 1;
  const std::span<const float> sample = data.subspan(0, n);
  int best_dim = 1;
  std::size_t best_size = static_cast<std::size_t>(-1);
  // The size bound is dimensionality-independent, so one allocation serves
  // all eight candidate codecs.
  std::vector<std::uint8_t> buf(MpcCodec(1).max_compressed_bytes(n));
  for (int d = 1; d <= 8; ++d) {
    MpcCodec codec(d);
    const std::size_t size = codec.compress(sample, buf);
    if (size < best_size) {
      best_size = size;
      best_dim = d;
    }
  }
  return best_dim;
}

// ---------------------------------------------------------------------------
// Double-precision variant: same pipeline at 64-bit width.
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kMagic64 = 0x4d504338u;  // "MPC8"

[[nodiscard]] std::uint64_t zigzag64(std::uint64_t r) {
  const std::int64_t s = static_cast<std::int64_t>(r);
  return (static_cast<std::uint64_t>(s) << 1) ^ static_cast<std::uint64_t>(s >> 63);
}

[[nodiscard]] std::uint64_t unzigzag64(std::uint64_t z) {
  return (z >> 1) ^ (~(z & 1u) + 1u);
}

std::size_t compress_chunk64(const std::uint64_t* bits, std::size_t n, int dim,
                             std::uint64_t* out) {
  const auto d = static_cast<std::size_t>(dim);
  std::size_t out_words = 0;
  std::uint64_t tile[64];
  for (std::size_t base = 0; base < n; base += 64) {
    if (base >= d && base + 64 <= n) {
      for (std::size_t j = 0; j < 64; ++j) {
        tile[j] = zigzag64(bits[base + j] - bits[base + j - d]);
      }
    } else {
      for (std::size_t j = 0; j < 64; ++j) {
        const std::size_t i = base + j;
        if (i < n) {
          const std::uint64_t prev = i >= d ? bits[i - d] : 0u;
          tile[j] = zigzag64(bits[i] - prev);
        } else {
          tile[j] = 0;
        }
      }
    }
    std::uint64_t any = 0;
    for (std::size_t j = 0; j < 64; ++j) any |= tile[j];
    if (any == 0) {
      out[out_words++] = 0;  // empty mask; zero tile transposes to itself
      continue;
    }
    bit_transpose64(tile);
    std::uint64_t mask = 0;
    for (int b = 0; b < 64; ++b) {
      mask |= static_cast<std::uint64_t>(tile[b] != 0) << b;
    }
    out[out_words++] = mask;
    for (int b = 0; b < 64; ++b) {
      out[out_words] = tile[b];
      out_words += tile[b] != 0;
    }
  }
  return out_words;
}

void decompress_chunk64(const std::uint64_t* in, std::size_t in_words, std::size_t n,
                        int dim, std::uint64_t* bits) {
  const auto d = static_cast<std::size_t>(dim);
  std::size_t pos = 0;
  std::uint64_t tile[64];
  for (std::size_t base = 0; base < n; base += 64) {
    if (pos >= in_words) throw std::runtime_error("MPC64: truncated chunk");
    const std::uint64_t mask = in[pos++];
    if (mask == 0) {
      for (std::size_t j = 0; j < 64; ++j) {
        const std::size_t i = base + j;
        if (i >= n) break;
        bits[i] = i >= d ? bits[i - d] : 0u;
      }
      continue;
    }
    for (int b = 0; b < 64; ++b) {
      tile[b] = (mask >> b) & 1u ? in[pos++] : 0u;
    }
    bit_transpose64(tile);  // involution
    if (base >= d && base + 64 <= n) {
      for (std::size_t j = 0; j < 64; ++j) {
        const std::size_t i = base + j;
        bits[i] = unzigzag64(tile[j]) + bits[i - d];
      }
    } else {
      for (std::size_t j = 0; j < 64; ++j) {
        const std::size_t i = base + j;
        if (i >= n) break;
        const std::uint64_t prev = i >= d ? bits[i - d] : 0u;
        bits[i] = unzigzag64(tile[j]) + prev;
      }
    }
  }
  if (pos != in_words) throw std::runtime_error("MPC64: trailing chunk bytes");
}

}  // namespace

MpcCodec64::MpcCodec64(int dimensionality, std::size_t chunk_values)
    : dim_(dimensionality), chunk_(chunk_values) {
  if (dim_ < 1 || dim_ > 64) throw std::invalid_argument("MpcCodec64: dimensionality must be 1..64");
  if (chunk_ == 0 || chunk_ % 64 != 0) {
    throw std::invalid_argument("MpcCodec64: chunk_values must be a positive multiple of 64");
  }
}

std::size_t MpcCodec64::max_compressed_bytes(std::size_t n_values) const {
  const std::size_t chunks = n_values == 0 ? 0 : chunk_count(n_values);
  const std::size_t tiles = (n_values + 63) / 64 + chunks;
  return (kFixedHeaderWords + chunks) * 4 + 65 * tiles * 8;
}

std::size_t MpcCodec64::compress(std::span<const double> in, std::span<std::uint8_t> out) const {
  const std::size_t n = in.size();
  if (out.size() < max_compressed_bytes(n)) {
    throw std::invalid_argument("MpcCodec64::compress: output buffer too small");
  }
  const std::size_t chunks = n == 0 ? 0 : chunk_count(n);
  std::uint8_t* base = out.data();
  store_u32(base + 0, kMagic64);
  store_u32(base + 4, static_cast<std::uint32_t>(n));
  store_u32(base + 8, static_cast<std::uint32_t>(dim_));
  store_u32(base + 12, static_cast<std::uint32_t>(chunk_));
  store_u32(base + 16, static_cast<std::uint32_t>(chunks));

  std::uint8_t* size_table = base + kFixedHeaderWords * 4;
  std::uint8_t* payload = size_table + chunks * 4;

  std::vector<std::uint64_t> in_bits(chunk_);
  std::vector<std::uint64_t> scratch(chunk_ + chunk_ / 64 + 1);
  std::size_t payload_words = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk_;
    const std::size_t count = std::min(chunk_, n - begin);
    std::memcpy(in_bits.data(), in.data() + begin, count * 8);
    const std::size_t words = compress_chunk64(in_bits.data(), count, dim_, scratch.data());
    store_u32(size_table + c * 4, static_cast<std::uint32_t>(words));
    std::memcpy(payload + payload_words * 8, scratch.data(), words * 8);
    payload_words += words;
  }
  return (kFixedHeaderWords + chunks) * 4 + payload_words * 8;
}

std::size_t MpcCodec64::decompress(std::span<const std::uint8_t> in,
                                   std::span<double> out) const {
  if (in.size() < kFixedHeaderWords * 4) throw std::invalid_argument("MpcCodec64: truncated input");
  const std::uint8_t* base = in.data();
  if (load_u32(base) != kMagic64) throw std::invalid_argument("MpcCodec64: bad magic");
  const std::size_t n = load_u32(base + 4);
  const int dim = static_cast<int>(load_u32(base + 8));
  const std::size_t chunk = load_u32(base + 12);
  const std::size_t chunks = load_u32(base + 16);
  if (dim < 1 || dim > 64 || chunk == 0 || chunk % 64 != 0) {
    throw std::invalid_argument("MpcCodec64: corrupt header");
  }
  if (n != 0 && chunks != (n + chunk - 1) / chunk) {
    throw std::invalid_argument("MpcCodec64: inconsistent chunk count");
  }
  if (out.size() < n) throw std::invalid_argument("MpcCodec64::decompress: output too small");
  if (in.size() < (kFixedHeaderWords + chunks) * 4) {
    throw std::invalid_argument("MpcCodec64: truncated size table");
  }

  const std::uint8_t* size_table = base + kFixedHeaderWords * 4;
  const std::uint8_t* payload = size_table + chunks * 4;
  const std::size_t payload_offset = (kFixedHeaderWords + chunks) * 4;

  std::vector<std::uint64_t> scratch(chunk + chunk / 64 + 1);
  std::vector<std::uint64_t> out_bits(chunk);
  std::size_t offset_words = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t words = load_u32(size_table + c * 4);
    if (words > scratch.size()) throw std::runtime_error("MpcCodec64: corrupt chunk size");
    const std::size_t begin = c * chunk;
    const std::size_t count = std::min(chunk, n - begin);
    if (payload_offset + (offset_words + words) * 8 > in.size()) {
      throw std::runtime_error("MpcCodec64: truncated payload");
    }
    std::memcpy(scratch.data(), payload + offset_words * 8, words * 8);
    decompress_chunk64(scratch.data(), words, count, dim, out_bits.data());
    std::memcpy(out.data() + begin, out_bits.data(), count * 8);
    offset_words += words;
  }
  return n;
}

}  // namespace gcmpi::comp
