#include "util/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace gcmpi::util {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  std::uint32_t t[8][256];
};

Tables build_tables() {
  Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
    tb.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tb.t[0][i];
    for (int s = 1; s < 8; ++s) {
      c = tb.t[0][c & 0xFFu] ^ (c >> 8);
      tb.t[s][i] = c;
    }
  }
  return tb;
}

const Tables& tables() {
  static const Tables tb = build_tables();
  return tb;
}

#if defined(__x86_64__)
/// SSE4.2 `crc32` instruction: the same polynomial and bit order as the
/// tables, 8 bytes per instruction. Compiled for SSE4.2 without making it
/// a build requirement; only called once the CPU reports the feature.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(const void* data,
                                                              std::size_t bytes,
                                                              std::uint32_t crc) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = ~crc;
  while (bytes >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    bytes -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (bytes-- != 0) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}
#endif

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

/// The hardware routine when the CPU has SSE4.2, else slice-by-8; chosen on
/// first use, so callers in static initialisers get a valid choice too.
Crc32cFn selected_crc32c() {
#if defined(__x86_64__)
  static const Crc32cFn fn = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") ? crc32c_sse42 : crc32c_portable;
  }();
  return fn;
#else
  return crc32c_portable;
#endif
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t bytes, std::uint32_t crc) {
  return selected_crc32c()(data, bytes, crc);
}

std::uint32_t crc32c_portable(const void* data, std::size_t bytes, std::uint32_t crc) {
  const auto& tb = tables();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = ~crc;
  // Head: align the slice-by-8 loop to an 8-byte stride.
  while (bytes != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    --bytes;
  }
  while (bytes >= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    c = tb.t[7][lo & 0xFFu] ^ tb.t[6][(lo >> 8) & 0xFFu] ^ tb.t[5][(lo >> 16) & 0xFFu] ^
        tb.t[4][lo >> 24] ^ tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
        tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
    p += 8;
    bytes -= 8;
  }
  while (bytes-- != 0) c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return ~c;
}

std::uint32_t crc32c_reference(const void* data, std::size_t bytes, std::uint32_t crc) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < bytes; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
  }
  return ~c;
}

}  // namespace gcmpi::util
