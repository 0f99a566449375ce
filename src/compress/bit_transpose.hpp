// In-place bit-matrix transposes for MPC's tile stage.
//
// Convention: row r of the matrix is word a[r], and bit c (LSB-first) of
// that word is column c, i.e. M[r][c] = (a[r] >> c) & 1. The transpose
// satisfies M'[r][c] = M[c][r] — exactly the "out[b] collects bit b of
// in[0..N)" layout MPC's zero-elimination stage expects. Every function is
// an involution: applying it twice is the identity, which is what lets MPC
// decompression reuse the forward transpose.
//
// Portable kernels (`bit_transpose32`, `bit_transpose64`): the Hacker's
// Delight recursive block swap (Sec. 7-3), mirrored for LSB-first bit
// order. At each level, the block of rows with bit j clear / columns with
// bit j set trades places with the block of rows with bit j set / columns
// with bit j clear using a mask/shift/xor exchange. log2(N) passes of N/2
// word operations replace the naive N*N double loop; the 32x32 tile
// transposes in ~160 word ops.
//
// SSE2 kernel (`bit_transpose32_sse2`, x86-64 baseline, so no -march flag):
// the tile is 128 bytes, byte k of row r holding columns 8k..8k+7. Four
// rounds of eight byte/quadword unpacks regroup it so that one register
// holds byte k of rows 0..15 (in row order) and another byte k of rows
// 16..31. `_mm_movemask_epi8` then reads the top bit of all 16 bytes at
// once: two movemasks give output word 8k+7, and `_mm_add_epi8(v, v)`
// shifts every byte left by one to expose the next lower bit plane. The
// 32 words cost 64 movemasks instead of ~160 dependent scalar ops.
//
// `bit_transpose32_fast` is the kernel MPC calls: the SSE2 one where the
// compiler targets SSE2, otherwise the portable one. The portable kernel
// also stays as the test oracle for the SSE2 one.
#pragma once

#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace gcmpi::comp {

/// Transpose a 32x32 bit matrix in place.
inline void bit_transpose32(std::uint32_t a[32]) {
  std::uint32_t m = 0x0000FFFFu;
  for (int j = 16; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 32; k = (k + j + 1) & ~j) {
      const std::uint32_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

#if defined(__SSE2__)
/// Transpose a 32x32 bit matrix in place (SSE2 byte regroup + movemask).
inline void bit_transpose32_sse2(std::uint32_t a[32]) {
  // Byte address in the tile: row bits r4..r0, byte bits k1 k0. x[i]
  // holds rows 4i..4i+3, so register index = (r4 r3 r2) and byte-in-
  // register = (r1 r0 k1 k0). An epi8 unpack of a register pair moves the
  // pair's index bit into the byte index's LSB, shifts the byte index up
  // and sends its old MSB to the register index (lo = 0, hi = 1).
  __m128i x[8];
  for (int i = 0; i < 8; ++i) {
    x[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + 4 * i));
  }
  __m128i y[8];
  // Pair on r2 -> byte (r0 k1 k0 r2), register (r4 r3 r1).
  for (int i = 0; i < 8; i += 2) {
    y[i] = _mm_unpacklo_epi8(x[i], x[i + 1]);
    y[i + 1] = _mm_unpackhi_epi8(x[i], x[i + 1]);
  }
  // Pair on r1 -> byte (k1 k0 r2 r1), register (r4 r3 r0).
  for (int i = 0; i < 8; i += 2) {
    x[i] = _mm_unpacklo_epi8(y[i], y[i + 1]);
    x[i + 1] = _mm_unpackhi_epi8(y[i], y[i + 1]);
  }
  // Pair on r0 -> byte (k0 r2 r1 r0), register (r4 r3 k1).
  for (int i = 0; i < 8; i += 2) {
    y[i] = _mm_unpacklo_epi8(x[i], x[i + 1]);
    y[i + 1] = _mm_unpackhi_epi8(x[i], x[i + 1]);
  }
  // Quadword pair on r3 swaps it with the byte MSB k0 -> byte
  // (r3 r2 r1 r0), register (r4 k1 k0): x[4*r4 + k] is byte k of rows
  // 16*r4 .. 16*r4 + 15, in row order.
  for (int h = 0; h < 8; h += 4) {
    for (int k1 = 0; k1 < 2; ++k1) {
      x[h + 2 * k1] = _mm_unpacklo_epi64(y[h + k1], y[h + 2 + k1]);
      x[h + 2 * k1 + 1] = _mm_unpackhi_epi64(y[h + k1], y[h + 2 + k1]);
    }
  }
  // Bit plane 8k+j: the top bit of every byte after shifting by 7-j.
  for (int k = 0; k < 4; ++k) {
    __m128i lo = x[k];
    __m128i hi = x[4 + k];
    for (int j = 7; j >= 0; --j) {
      a[8 * k + j] = static_cast<std::uint32_t>(_mm_movemask_epi8(lo)) |
                     static_cast<std::uint32_t>(_mm_movemask_epi8(hi)) << 16;
      lo = _mm_add_epi8(lo, lo);
      hi = _mm_add_epi8(hi, hi);
    }
  }
}
#endif

/// The 32x32 transpose MPC's tile stage runs: SSE2 when available.
inline void bit_transpose32_fast(std::uint32_t a[32]) {
#if defined(__SSE2__)
  bit_transpose32_sse2(a);
#else
  bit_transpose32(a);
#endif
}

/// Transpose a 64x64 bit matrix in place.
inline void bit_transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

}  // namespace gcmpi::comp
