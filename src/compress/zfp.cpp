#include "compress/zfp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "compress/bitstream.hpp"

namespace gcmpi::comp {

namespace {

constexpr int kIntPrec = 32;      // bit planes per coefficient
constexpr int kEmaxBias = 150;    // covers float exponents incl. denormals
constexpr int kEmaxBits = 9;

// The lifting transforms rely on two's-complement wrap-around: truncated
// bit planes can push reconstructed coefficients past INT32 range, and the
// inverse transform must wrap exactly like the forward one so the lossless
// path stays bit-exact. Route +/-/<< through uint32 to keep that defined.
[[nodiscard]] std::int32_t wadd(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}
[[nodiscard]] std::int32_t wsub(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}
[[nodiscard]] std::int32_t wshl1(std::int32_t a) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) << 1);
}

/// zfp forward lifting transform over 4 values with stride s.
void fwd_lift(std::int32_t* p, std::size_t s) {
  std::int32_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x = wadd(x, w); x >>= 1; w = wsub(w, x);
  z = wadd(z, y); z >>= 1; y = wsub(y, z);
  x = wadd(x, z); x >>= 1; z = wsub(z, x);
  w = wadd(w, y); w >>= 1; y = wsub(y, w);
  w = wadd(w, y >> 1); y = wsub(y, w >> 1);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// Exact inverse of fwd_lift.
void inv_lift(std::int32_t* p, std::size_t s) {
  std::int32_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y = wadd(y, w >> 1); w = wsub(w, y >> 1);
  y = wadd(y, w); w = wshl1(w); w = wsub(w, y);
  z = wadd(z, x); x = wshl1(x); x = wsub(x, z);
  y = wadd(y, z); z = wshl1(z); z = wsub(z, y);
  w = wadd(w, x); x = wshl1(x); x = wsub(x, w);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// Total-sequency coefficient order for a d-dimensional block: low-frequency
/// (small coordinate sum) coefficients first so truncation drops the least
/// important bits. Tie-break by linear index (deterministic; not
/// bit-identical to libzfp's table but serves the same purpose).
template <int Dims>
const std::array<std::uint8_t, std::size_t(1) << (2 * Dims)>& perm() {
  static const auto table = [] {
    constexpr std::size_t n = std::size_t(1) << (2 * Dims);
    std::array<std::uint8_t, n> t{};
    std::array<std::uint8_t, n> idx{};
    std::iota(idx.begin(), idx.end(), std::uint8_t{0});
    auto coord_sum = [](std::size_t i) {
      return (i & 3u) + ((i >> 2) & 3u) + ((i >> 4) & 3u);
    };
    std::stable_sort(idx.begin(), idx.end(), [&](std::uint8_t a, std::uint8_t b) {
      return coord_sum(a) < coord_sum(b);
    });
    t = idx;
    return t;
  }();
  return table;
}

[[nodiscard]] std::uint32_t int_to_negabinary(std::int32_t x) {
  const std::uint32_t mask = 0xAAAAAAAAu;
  return (static_cast<std::uint32_t>(x) + mask) ^ mask;
}

[[nodiscard]] std::int32_t negabinary_to_int(std::uint32_t x) {
  const std::uint32_t mask = 0xAAAAAAAAu;
  return static_cast<std::int32_t>((x ^ mask) - mask);
}

/// 2^e as a double, built from its exponent field (|e| < 1023; block
/// exponents stay within [-180, 331]).
[[nodiscard]] inline double pow2(int e) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + e) << 52);
}

/// Bit pattern of the block's largest finite |x|; 0 when the block holds no
/// nonzero finite value. Float magnitudes order like their bit patterns.
template <int BlockSize>
[[nodiscard]] std::uint32_t max_finite_abs_bits(const float* f) {
  std::uint32_t m = 0;
  for (int i = 0; i < BlockSize; ++i) {
    const std::uint32_t a = std::bit_cast<std::uint32_t>(f[i]) & 0x7FFFFFFFu;
    m = std::max(m, a < 0x7F800000u ? a : 0u);
  }
  return m;
}

/// frexp's exponent of the positive finite float with bit pattern `a`
/// (value = m * 2^e, 0.5 <= m < 1): the biased exponent for normals, the
/// mantissa's bit width for denormals.
[[nodiscard]] inline int float_exponent(std::uint32_t a) {
  const int biased = static_cast<int>(a >> 23);
  return biased != 0 ? biased - 126 : static_cast<int>(std::bit_width(a)) - 149;
}

/// Block floating point: align the block to 2^emax and quantize with 2
/// guard bits, so |q| < 2^30; non-finite values become 0.
template <int BlockSize>
void quantize(const float* f, int emax, std::int32_t* q) {
  const double scale = pow2((kIntPrec - 2) - emax);
  for (int i = 0; i < BlockSize; ++i) {
    q[i] = std::isfinite(f[i]) ? static_cast<std::int32_t>(static_cast<double>(f[i]) * scale) : 0;
  }
}

/// Inverse of quantize (up to the dropped bits).
template <int BlockSize>
void dequantize(const std::int32_t* q, int emax, float* f) {
  const double scale = pow2(emax - (kIntPrec - 2));
  for (int i = 0; i < BlockSize; ++i) f[i] = static_cast<float>(q[i] * scale);
}

/// Embedded bit-plane encoder with group testing (zfp's encode_ints).
/// Writes at most `budget` bits; stops above plane `kmin` (fixed-precision
/// and fixed-accuracy modes truncate by plane instead of by budget).
///
/// The emitted bit sequence is identical to the scalar reference (one
/// group-test bit, then a unary run of zeros ending in the next value's
/// significance bit), but each unary run is emitted as one put_bits call
/// sized by countr_zero instead of a bit-at-a-time loop.
template <int BlockSize>
void encode_ints(BitWriter& w, const std::uint32_t* u, std::size_t budget, int kmin) {
  constexpr std::uint32_t bs = BlockSize;
  std::size_t bits = budget;
  std::uint32_t n = 0;  // values known to be significant so far
  for (int k = kIntPrec; bits > 0 && k-- > kmin;) {
    // Extract bit plane k across the block.
    std::uint64_t x = 0;
    for (std::uint32_t i = 0; i < bs; ++i) {
      x += static_cast<std::uint64_t>((u[i] >> k) & 1u) << i;
    }
    // Verbatim bits for the already-significant prefix.
    const std::uint32_t m = static_cast<std::uint32_t>(std::min<std::size_t>(n, bits));
    bits -= m;
    w.put_bits(x, static_cast<int>(m));
    x = (m < 64) ? (x >> m) : 0;
    // Group-tested unary expansion of the remainder of the plane.
    while (n < bs && bits) {
      --bits;  // group-test bit
      if (x == 0) {
        w.put_bit(0);
        break;  // rest of the plane is zero
      }
      w.put_bit(1);
      if (n == bs - 1) {
        // Last position: the group bit doubles as the significance bit.
        n = bs;
        break;
      }
      const std::size_t head = bs - 1 - n;  // unary positions before the cap
      const auto tz = static_cast<std::size_t>(std::countr_zero(x));
      if (tz < head && tz < bits) {
        // Full run: tz zeros then the terminating one, in one store.
        w.put_bits(std::uint64_t{1} << tz, static_cast<int>(tz + 1));
        bits -= tz + 1;
        x >>= tz + 1;
        n += static_cast<std::uint32_t>(tz + 1);
        continue;
      }
      // Clipped run: only zeros fit before the budget or the position cap.
      const std::size_t zeros = std::min(std::min(tz, head), bits);
      w.put_bits(0, static_cast<int>(zeros));
      bits -= zeros;
      n = bs;  // plane over either way: budget exhausted or position cap hit
      break;
    }
  }
}

/// Scatter plane k into the values. Small blocks take the branchless form
/// (the data-dependent jump loop mispredicts once or twice per plane, which
/// dominates the decode for 4- and 16-value blocks); 64-value blocks keep
/// the sparse set-bit walk, which wins while high planes are mostly zero.
template <int BlockSize>
inline void deposit_plane(std::uint32_t* u, std::uint64_t x, int k) {
  if (x == 0) return;  // empty planes dominate smooth data; skip the stores
  if constexpr (BlockSize <= 16) {
    for (int i = 0; i < BlockSize; ++i) {
      u[i] |= static_cast<std::uint32_t>((x >> i) & 1u) << k;
    }
  } else {
    while (x != 0) {
      const int i = std::countr_zero(x);
      u[i] |= 1u << k;
      x &= x - 1;
    }
  }
}

[[nodiscard]] inline std::uint64_t reverse_bits64(std::uint64_t x) {
  x = __builtin_bswap64(x);
  x = ((x & 0x0F0F0F0F0F0F0F0Full) << 4) | ((x >> 4) & 0x0F0F0F0F0F0F0F0Full);
  x = ((x & 0x3333333333333333ull) << 2) | ((x >> 2) & 0x3333333333333333ull);
  x = ((x & 0x5555555555555555ull) << 1) | ((x >> 1) & 0x5555555555555555ull);
  return x;
}

/// Compress the even-position bits of x into the low 32 bits.
[[nodiscard]] inline std::uint64_t even_bits64(std::uint64_t x) {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0Full;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFull;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFull;
  x = (x | (x >> 16)) & 0x00000000FFFFFFFFull;
  return x;
}

/// Compress bits at positions 0, 3, 6, ..., 60 into the low 21 bits
/// (the Morton 3D coordinate compaction).
[[nodiscard]] inline std::uint64_t stride3_bits64(std::uint64_t x) {
  x &= 0x1249249249249249ull;
  x = (x ^ (x >> 2)) & 0x10C30C30C30C30C3ull;
  x = (x ^ (x >> 4)) & 0x100F00F00F00F00Full;
  x = (x ^ (x >> 8)) & 0x001F0000FF0000FFull;
  x = (x ^ (x >> 16)) & 0x001F00000000FFFFull;
  x = (x ^ (x >> 32)) & 0x00000000001FFFFFull;
  return x;
}

/// Compress bits at positions 0, 4, 8, ... into the low 16 bits.
[[nodiscard]] inline std::uint64_t stride4_bits64(std::uint64_t x) {
  x &= 0x1111111111111111ull;
  x = (x | (x >> 3)) & 0x0303030303030303ull;
  x = (x | (x >> 6)) & 0x000F000F000F000Full;
  x = (x | (x >> 12)) & 0x000000FF000000FFull;
  x = (x | (x >> 24)) & 0x000000000000FFFFull;
  return x;
}

/// decode_ints for budgets that fit one reader window (< 64 bits): 2D blocks
/// at rate 4 and 1D blocks at rates 17..18 (1D rates 4..16 take the
/// register-sized coder below). The whole payload is peeked once and the
/// entire plane loop runs on registers; the reader advances a single time
/// at the end.
template <int BlockSize>
void decode_ints_small(BitReader& r, std::uint32_t* out, std::size_t budget, int kmin) {
  constexpr std::uint32_t bs = BlockSize;
  // Accumulate into a local block: with constant indices the compiler keeps
  // small blocks in registers (or vectors) instead of read-modify-writing
  // the caller's array once per plane.
  std::uint32_t u[BlockSize] = {};
  std::uint64_t win = r.peek_bits(static_cast<int>(budget));
  int t = 0;  // bits consumed from the window
  std::size_t bits = budget;
  std::uint32_t n = 0;
  int k = kIntPrec;
  // Deposit a batch of q extracted plane bits (stream order, descending k)
  // into value i: plane p of the run is bit plane k-1-p, so the bits land
  // reversed, as the contiguous range [k-q, k-1].
  auto deposit_column = [&u](int i, std::uint64_t e, int q, int kk) {
    u[i] |= static_cast<std::uint32_t>((reverse_bits64(e) >> (64 - q)) << (kk - q));
  };
  while (bits > 0 && k > kmin) {
    // Steady-state batching. A quiet plane (no new significance) with n
    // values already significant is n verbatim bits followed by a 0 group
    // bit, so a run of them is a periodic pattern of period n+1: locate the
    // first 1 group bit with countr_zero on the masked window and peel the
    // whole run with stride-(n+1) bit compressions instead of a plane loop.
    // n == 1 is the dominant regime for smooth data (DC significant, ACs
    // quiet); n == 0 covers the leading planes and near-constant blocks.
    if (n == 0) {
      const int q = std::min(std::min(static_cast<int>(std::countr_zero(win)), k - kmin),
                             static_cast<int>(bits));
      if (q > 0) {
        win >>= q;
        t += q;
        bits -= static_cast<std::size_t>(q);
        k -= q;
        if (bits == 0 || k == kmin) break;
      }
    } else if (n == 1) {
      const std::uint64_t g = win & 0xAAAAAAAAAAAAAAAAull;
      const int quiet = (g != 0) ? (std::countr_zero(g) >> 1) : 32;
      const int q = std::min(std::min(quiet, k - kmin), static_cast<int>(bits >> 1));
      if (q > 0) {
        deposit_column(0, even_bits64(win) & ((std::uint64_t{1} << q) - 1u), q, k);
        win >>= 2 * q;
        t += 2 * q;
        bits -= static_cast<std::size_t>(2 * q);
        k -= q;
        if (bits == 0 || k == kmin) break;
      }
    } else if (n == 2) {
      const std::uint64_t g = win & 0x4924924924924924ull;
      const int quiet = (g != 0) ? (std::countr_zero(g) / 3) : 21;
      const int q = std::min(std::min(quiet, k - kmin), static_cast<int>(bits / 3));
      if (q > 0) {
        const std::uint64_t qm = (std::uint64_t{1} << q) - 1u;
        deposit_column(0, stride3_bits64(win) & qm, q, k);
        deposit_column(1, stride3_bits64(win >> 1) & qm, q, k);
        win >>= 3 * q;
        t += 3 * q;
        bits -= static_cast<std::size_t>(3 * q);
        k -= q;
        if (bits == 0 || k == kmin) break;
      }
    } else if (n == 3) {
      const std::uint64_t g = win & 0x8888888888888888ull;
      const int quiet = (g != 0) ? (std::countr_zero(g) >> 2) : 16;
      const int q = std::min(std::min(quiet, k - kmin), static_cast<int>(bits >> 2));
      if (q > 0) {
        const std::uint64_t qm = (std::uint64_t{1} << q) - 1u;
        deposit_column(0, stride4_bits64(win) & qm, q, k);
        deposit_column(1, stride4_bits64(win >> 1) & qm, q, k);
        deposit_column(2, stride4_bits64(win >> 2) & qm, q, k);
        win >>= 4 * q;
        t += 4 * q;
        bits -= static_cast<std::size_t>(4 * q);
        k -= q;
        if (bits == 0 || k == kmin) break;
      }
    }
    --k;
    const std::uint32_t m = static_cast<std::uint32_t>(std::min<std::size_t>(n, bits));
    bits -= m;
    std::uint64_t x = win & ((std::uint64_t{1} << m) - 1u);
    win >>= m;
    t += static_cast<int>(m);
    while (n < bs && bits) {
      --bits;  // group-test bit
      ++t;
      const std::uint64_t g = win & 1u;
      win >>= 1;
      if (g == 0) break;
      const auto limit = static_cast<std::size_t>(std::min<std::size_t>(bs - 1 - n, bits));
      const auto z =
          static_cast<std::size_t>(std::countr_zero(win | (std::uint64_t{1} << limit)));
      if (z < limit) {
        win >>= z + 1;
        t += static_cast<int>(z + 1);
        bits -= z + 1;
        x += std::uint64_t{1} << (n + z);
        n += static_cast<std::uint32_t>(z + 1);
        continue;
      }
      // Clipped run: the significance bit at position n+z is implied by the
      // budget or position cap, exactly as the scalar loop's exit path.
      win >>= z;
      t += static_cast<int>(z);
      bits -= z;
      x += std::uint64_t{1} << (n + z);
      n += static_cast<std::uint32_t>(z + 1);
      break;
    }
    deposit_plane<BlockSize>(u, x, k);
    if (n == bs) break;  // all significant: the rest is pure verbatim
  }
  if (n == bs) {
    while (k > kmin && bits >= bs) {
      // bs == 64 cannot reach here (bits <= budget < 64), so the shifts
      // are guarded for compile-time well-formedness only.
      --k;
      deposit_plane<BlockSize>(u, (bs < 64) ? (win & ((std::uint64_t{1} << bs) - 1u)) : win, k);
      win = (bs < 64) ? (win >> bs) : 0;
      t += static_cast<int>(bs);
      bits -= bs;
    }
    if (k > kmin && bits > 0) {
      // Budget ends inside the final plane: m = min(n, bits) = bits < bs.
      deposit_plane<BlockSize>(u, win & ((std::uint64_t{1} << bits) - 1u), k - 1);
      t += static_cast<int>(bits);
      bits = 0;
    }
  }
  r.skip(t);
  std::memcpy(out, u, sizeof(u));
}

/// Mirror of encode_ints: consumes exactly the bit positions the scalar
/// reference reads, batching each unary run with peek_bits + countr_zero.
template <int BlockSize>
void decode_ints(BitReader& r, std::uint32_t* out, std::size_t budget, int kmin) {
  constexpr std::uint32_t bs = BlockSize;
  if (budget < 64) {
    decode_ints_small<BlockSize>(r, out, budget, kmin);
    return;
  }
  std::uint32_t u[BlockSize] = {};
  std::size_t bits = budget;
  std::uint32_t n = 0;
  auto deposit = [&u](std::uint64_t x, int k) { deposit_plane<BlockSize>(u, x, k); };
  int k = kIntPrec;
  if constexpr (bs <= 16) {
    // A whole plane (verbatim prefix + group bits + unary runs) consumes at
    // most 2*bs + 1 <= 33 bits, so one peek covers it and the plane parses
    // entirely out of a register with a single skip at the end.
    constexpr int kPlanePeek = 2 * static_cast<int>(bs) + 1;
    while (bits > 0 && k-- > kmin) {
      std::uint64_t win = r.peek_bits(kPlanePeek);
      int t = 0;  // bits consumed from the window
      const std::uint32_t m = static_cast<std::uint32_t>(std::min<std::size_t>(n, bits));
      bits -= m;
      std::uint64_t x = win & ((std::uint64_t{1} << m) - 1u);
      win >>= m;
      t += static_cast<int>(m);
      while (n < bs && bits) {
        --bits;  // group-test bit
        ++t;
        const std::uint64_t g = win & 1u;
        win >>= 1;
        if (g == 0) break;
        const auto limit =
            static_cast<std::size_t>(std::min<std::size_t>(bs - 1 - n, bits));
        const auto z = static_cast<std::size_t>(
            std::countr_zero(win | (std::uint64_t{1} << limit)));
        if (z < limit) {
          win >>= z + 1;
          t += static_cast<int>(z + 1);
          bits -= z + 1;
          x += std::uint64_t{1} << (n + z);
          n += static_cast<std::uint32_t>(z + 1);
          continue;
        }
        // Clipped run: the significance bit at position n+z is implied by
        // the budget or position cap, exactly as the scalar loop's exit path.
        win >>= z;
        t += static_cast<int>(z);
        bits -= z;
        x += std::uint64_t{1} << (n + z);
        n += static_cast<std::uint32_t>(z + 1);
        break;
      }
      r.skip(t);
      deposit(x, k);
      if (n == bs) break;  // all significant: the rest is pure verbatim
    }
  } else {
    while (bits > 0 && k-- > kmin) {
      const std::uint32_t m = static_cast<std::uint32_t>(std::min<std::size_t>(n, bits));
      bits -= m;
      std::uint64_t x = r.get_bits(static_cast<int>(m));
      while (n < bs && bits) {
        --bits;  // group-test bit
        if (!r.get_bit()) break;
        // Unary run: zeros until the next significance bit, capped by the
        // remaining budget and by position bs-1 (whose bit is implied).
        const auto limit =
            static_cast<std::size_t>(std::min<std::size_t>(bs - 1 - n, bits));  // <= 63
        const std::uint64_t window = r.peek_bits(static_cast<int>(limit));
        const auto z = static_cast<std::size_t>(
            std::countr_zero(window | (std::uint64_t{1} << limit)));
        if (z < limit) {
          r.skip(static_cast<int>(z + 1));
          bits -= z + 1;
          x += std::uint64_t{1} << (n + z);
          n += static_cast<std::uint32_t>(z + 1);
          continue;
        }
        // Clipped run: the significance bit at position n+z is implied by the
        // budget or position cap, exactly as the scalar loop's exit path.
        r.skip(static_cast<int>(z));
        bits -= z;
        x += std::uint64_t{1} << (n + z);
        n += static_cast<std::uint32_t>(z + 1);
        break;
      }
      deposit(x, k);
      if (n == bs) break;  // all significant: the rest is pure verbatim
    }
  }
  // Verbatim tail: every remaining plane is exactly bs bits with no group
  // tests, so several planes come out of the reader per call (64/bs at a
  // time) instead of one.
  if (n == bs) {
    constexpr int kPlanesPerRead = 64 / static_cast<int>(bs);
    while (k > kmin && bits >= bs) {
      const int planes = std::min(
          {k - kmin, kPlanesPerRead, static_cast<int>(bits / bs)});
      std::uint64_t v = r.get_bits(planes * static_cast<int>(bs));
      bits -= static_cast<std::size_t>(planes) * bs;
      for (int p = 0; p < planes; ++p) {
        --k;
        deposit((bs < 64) ? (v & ((std::uint64_t{1} << bs) - 1)) : v, k);
        v = (bs < 64) ? (v >> bs) : 0;
      }
    }
    if (k > kmin && bits > 0) {
      // Budget ends inside the final plane: m = min(n, bits) = bits < bs.
      deposit(r.get_bits(static_cast<int>(bits)), k - 1);
      bits = 0;
    }
  }
  std::memcpy(out, u, sizeof(u));
}

// ---------------------------------------------------------------------------
// Register-sized 1D fixed-rate coder (rates 4..16).
//
// A 1D block at these rates is at most 64 bits, so it is built and parsed
// as one uint64 at its fixed offset b * 4 * rate, with no BitWriter or
// BitReader, and it carries exactly the bits encode_ints<4> /
// decode_ints<4> would (the golden streams pin this).
//
// Stream plane p is bit plane 31 - p of the four values. Reversing each
// column (rev32) would line plane p up with bit p; the coder instead holds
// the block's stream bit-reversed in the register (stream bit t at bit
// 63 - t), which gives the same alignment with one 64-bit reversal per
// block: consecutive planes of a column are consecutive bits of u[j].
//
// With n values significant a plane is quiet when bits 31-p of u[n..3] are
// all zero; it is then n verbatim bits and a 0 group bit (4 verbatim bits
// once n == 4), so a run of quiet planes is a stride-(n+1) interleave of
// columns 0..n-1, moved with one spread or compression per column. The run
// ends at plane countl_zero(u[n] | ... | u[3]), a transition plane that
// raises n, so a block is at most five quiet runs separated by at most four
// transition planes, which come from (n, plane bits) tables. Fixed-rate
// truncation is a prefix cut of this stream, except that a decoder plane
// cut by the budget implies its last significance bit (parse_plane).
// ---------------------------------------------------------------------------

/// Whether blocks take this coder: 1D fixed-rate blocks of at most 64 bits.
[[nodiscard]] bool register_sized(ZfpMode mode, const ZfpField& field, int rate) {
  return mode == ZfpMode::FixedRate && field.dims == 1 && 4 * rate <= 64;
}

/// Spread the low bits of x to positions 0, 2, 4, ... (inverse of even_bits64).
[[nodiscard]] inline std::uint64_t spread2_bits64(std::uint64_t x) {
  x &= 0x00000000FFFFFFFFull;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFull;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFull;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0Full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

/// Spread the low 21 bits of x to positions 0, 3, 6, ... (inverse of stride3_bits64).
[[nodiscard]] inline std::uint64_t spread3_bits64(std::uint64_t x) {
  x &= 0x00000000001FFFFFull;
  x = (x | (x << 32)) & 0x001F00000000FFFFull;
  x = (x | (x << 16)) & 0x001F0000FF0000FFull;
  x = (x | (x << 8)) & 0x100F00F00F00F00Full;
  x = (x | (x << 4)) & 0x10C30C30C30C30C3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}

/// Spread the low 16 bits of x to positions 0, 4, 8, ... (inverse of stride4_bits64).
[[nodiscard]] inline std::uint64_t spread4_bits64(std::uint64_t x) {
  x &= 0x000000000000FFFFull;
  x = (x | (x << 24)) & 0x000000FF000000FFull;
  x = (x | (x << 12)) & 0x000F000F000F000Full;
  x = (x | (x << 6)) & 0x0303030303030303ull;
  x = (x | (x << 3)) & 0x1111111111111111ull;
  return x;
}

/// One plane of a 4-value block.
struct PlaneStep {
  std::uint8_t bits;    // encoder: stream bits; decoder: value bits (bit j = u[j])
  std::uint8_t len;     // stream bits the plane takes
  std::uint8_t next_n;  // significant values after the plane
};

[[nodiscard]] constexpr std::uint8_t reverse_low_bits(std::uint32_t x, int len) {
  std::uint32_t r = 0;
  for (int i = 0; i < len; ++i) r |= ((x >> i) & 1u) << (len - 1 - i);
  return static_cast<std::uint8_t>(r);
}

/// encode_ints<4>'s rule for plane bits `x` with no budget limit: n
/// verbatim bits, then group-tested unary runs (at most 7 bits in all).
/// Stream bits come out LSB first.
constexpr PlaneStep encode_plane(std::uint32_t n, std::uint32_t x) {
  std::uint32_t code = x & ((1u << n) - 1u);
  int len = static_cast<int>(n);
  x >>= n;
  while (n < 4) {
    if (x == 0) {
      ++len;  // 0 group bit: rest of the plane is zero
      break;
    }
    code |= 1u << len++;  // 1 group bit
    if (n == 3) {
      n = 4;  // the group bit doubles as the last value's significance bit
      break;
    }
    const int tz = std::countr_zero(x);
    if (tz < static_cast<int>(3 - n)) {
      code |= 1u << (len + tz);  // tz zeros, then the significance bit
      len += tz + 1;
      x >>= tz + 1;
      n += static_cast<std::uint32_t>(tz) + 1;
      continue;
    }
    len += static_cast<int>(3 - n);  // zeros up to the implied last value
    n = 4;
    break;
  }
  return {static_cast<std::uint8_t>(code), static_cast<std::uint8_t>(len),
          static_cast<std::uint8_t>(n)};
}

/// decode_ints<4>'s rule for one plane with `bits` of budget left, reading
/// stream bits LSB first from `w`. A run cut by the budget or by the last
/// position implies its significance bit, as the scalar loop's exit path.
constexpr PlaneStep parse_plane(std::uint32_t n, std::uint64_t w, int bits) {
  const int m = std::min(static_cast<int>(n), bits);
  std::uint32_t x = static_cast<std::uint32_t>(w & ((std::uint64_t{1} << m) - 1u));
  int len = m;
  w >>= m;
  bits -= m;
  while (n < 4 && bits > 0) {
    --bits;  // group-test bit
    ++len;
    const bool group = (w & 1u) != 0;
    w >>= 1;
    if (!group) break;
    const int limit = std::min(static_cast<int>(3 - n), bits);
    const int z = std::countr_zero(w | (std::uint64_t{1} << limit));
    x |= 1u << (n + static_cast<std::uint32_t>(z));
    n += static_cast<std::uint32_t>(z) + 1;
    if (z == limit) {
      len += z;
      break;
    }
    w >>= z + 1;
    bits -= z + 1;
    len += z + 1;
  }
  return {static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(len),
          static_cast<std::uint8_t>(n)};
}

/// Encoder transition table, indexed by n * 16 + plane bits; the code is
/// stored bit-reversed (first stream bit highest), like the block register.
constexpr auto kEncodePlane = [] {
  std::array<PlaneStep, 5 * 16> t{};
  for (std::uint32_t n = 0; n <= 4; ++n) {
    for (std::uint32_t x = 0; x < 16; ++x) {
      PlaneStep e = encode_plane(n, x);
      e.bits = reverse_low_bits(e.bits, e.len);
      t[n * 16 + x] = e;
    }
  }
  return t;
}();

/// Decoder transition table, indexed by n * 256 + the next 8 stream bits
/// (first stream bit highest). An uncut plane takes at most 7 bits, so 8
/// bits of lookahead decide it.
constexpr auto kDecodePlane = [] {
  std::array<PlaneStep, 5 * 256> t{};
  for (std::uint32_t n = 0; n <= 4; ++n) {
    for (std::uint32_t b = 0; b < 256; ++b) t[n * 256 + b] = parse_plane(n, reverse_low_bits(b, 8), 8);
  }
  return t;
}();

/// Stream bits of a nonzero block's coefficient planes, cut to `budget`
/// (<= 54) bits, first stream bit at bit 63.
[[nodiscard]] std::uint64_t encode_planes_1d(const std::uint32_t* u, int budget) {
  // any[n]: bits set in some value >= n; its leading zeros end the quiet
  // run at n.
  std::uint32_t any[5];
  any[4] = 0;
  for (int j = 3; j >= 0; --j) any[j] = any[j + 1] | u[j];
  int p = std::countl_zero(any[0]);  // leading all-zero planes: a 0 group bit each
  int pos = p;                       // stream bits emitted
  if (pos >= budget) return 0;
  std::uint64_t rs = 0;
  std::uint32_t n = 0;
  for (;;) {
    // Transition plane: some value >= n becomes significant here.
    const int k = 31 - p;
    const std::uint32_t x = ((u[0] >> k) & 1u) | ((u[1] >> k) & 1u) << 1 |
                            ((u[2] >> k) & 1u) << 2 | ((u[3] >> k) & 1u) << 3;
    const PlaneStep& e = kEncodePlane[n * 16 + x];
    rs |= static_cast<std::uint64_t>(e.bits) << (64 - pos - e.len);
    pos += e.len;
    n = e.next_n;
    if (pos >= budget || ++p == 32) break;
    const int quiet = std::countl_zero(any[n]) - p;
    if (quiet <= 0) continue;
    // Quiet run of q planes (only those that start inside the budget):
    // bit planes [lo, lo + q) of columns 0..n-1 at stride s.
    const int s = n < 4 ? static_cast<int>(n) + 1 : 4;
    const int q = std::min(quiet, (budget - pos + s - 1) / s);
    const int lo = 32 - p - q;
    const std::uint64_t qm = (std::uint64_t{1} << q) - 1u;
    std::uint64_t run;
    if (n == 1) {
      run = spread2_bits64((u[0] >> lo) & qm) << 1;
    } else if (n == 2) {
      run = spread3_bits64((u[0] >> lo) & qm) << 2 | spread3_bits64((u[1] >> lo) & qm) << 1;
    } else {  // n == 3 leaves column 3's slot as the 0 group bit
      run = spread4_bits64((u[0] >> lo) & qm) << 3 | spread4_bits64((u[1] >> lo) & qm) << 2 |
            spread4_bits64((u[2] >> lo) & qm) << 1 | spread4_bits64((u[3] >> lo) & qm);
    }
    rs |= run << (64 - pos - q * s);  // pos + q * s <= budget + 3 <= 57
    pos += q * s;
    p += q;
    if (pos >= budget || p == 32) break;
  }
  return rs & ~(~std::uint64_t{0} >> budget);
}

/// Inverse of encode_planes_1d: `rs` holds `budget` plane bits, first
/// stream bit at bit 63 and zeros below the budget.
void decode_planes_1d(std::uint64_t rs, int budget, std::uint32_t* u) {
  std::uint32_t v[4] = {};
  int bits = budget;
  int k = 32;  // bit planes not yet decoded
  std::uint32_t n = 0;
  for (;;) {
    // Quiet run: the leading planes whose group bit is 0.
    int quiet = 32;
    int s = 4;
    switch (n) {
      case 0: quiet = std::countl_zero(rs); s = 1; break;
      case 1: {
        const std::uint64_t g = rs & 0x5555555555555555ull;
        quiet = g != 0 ? std::countl_zero(g) >> 1 : 32;
        s = 2;
        break;
      }
      case 2: {
        const std::uint64_t g = rs & 0x2492492492492492ull;
        quiet = g != 0 ? std::countl_zero(g) / 3 : 21;
        s = 3;
        break;
      }
      case 3: {
        const std::uint64_t g = rs & 0x1111111111111111ull;
        quiet = g != 0 ? std::countl_zero(g) >> 2 : 16;
        break;
      }
      default: break;  // all significant: 4 verbatim bits per plane
    }
    const int q = std::min({quiet, k, bits / s});
    if (q > 0) {
      // The run's bits, last plane lowest: column j sits at offset s-1-j.
      const std::uint64_t run = rs >> (64 - q * s);
      const std::uint64_t qm = (std::uint64_t{1} << q) - 1u;
      k -= q;
      switch (n) {
        case 0: break;
        case 1: v[0] |= static_cast<std::uint32_t>(even_bits64(run >> 1) & qm) << k; break;
        case 2:
          v[0] |= static_cast<std::uint32_t>(stride3_bits64(run >> 2) & qm) << k;
          v[1] |= static_cast<std::uint32_t>(stride3_bits64(run >> 1) & qm) << k;
          break;
        default:
          v[0] |= static_cast<std::uint32_t>(stride4_bits64(run >> 3) & qm) << k;
          v[1] |= static_cast<std::uint32_t>(stride4_bits64(run >> 2) & qm) << k;
          v[2] |= static_cast<std::uint32_t>(stride4_bits64(run >> 1) & qm) << k;
          v[3] |= static_cast<std::uint32_t>(stride4_bits64(run) & qm) << k;  // 0 group bits when n == 3
      }
      rs <<= q * s;  // q * s <= bits <= 54
      bits -= q * s;
    }
    if (bits == 0 || k == 0) break;
    // Transition plane, or a last plane cut by the budget.
    const auto next8 = static_cast<std::uint32_t>(rs >> 56);
    PlaneStep e = kDecodePlane[n * 256 + next8];
    const bool cut = e.len > bits;
    if (cut) e = parse_plane(n, reverse_low_bits(next8, 8), bits);
    --k;
    for (int j = 0; j < 4; ++j) v[j] |= ((e.bits >> j) & 1u) << k;
    if (cut) break;
    rs <<= e.len;
    bits -= e.len;
    n = e.next_n;
    if (bits == 0 || k == 0) break;
  }
  std::memcpy(u, v, sizeof(v));
}

/// A whole 1D block (header + planes) as its `4 * rate` stream bits, LSB first.
[[nodiscard]] std::uint64_t encode_block_1d(const float* f, int rate) {
  const std::uint32_t fmax = max_finite_abs_bits<4>(f);
  if (fmax == 0) return 0;  // all-zero block: flag 0, zero padding
  const int emax = float_exponent(fmax);
  std::int32_t iblock[4];
  quantize<4>(f, emax, iblock);
  fwd_lift(iblock, 1);
  std::uint32_t ublock[4];
  for (int i = 0; i < 4; ++i) ublock[i] = int_to_negabinary(iblock[i]);
  constexpr int kHeader = 1 + kEmaxBits;
  return 1u | static_cast<std::uint64_t>(emax + kEmaxBias) << 1 |
         reverse_bits64(encode_planes_1d(ublock, 4 * rate - kHeader)) << kHeader;
}

void decode_block_1d(std::uint64_t v, int rate, float* f) {
  if ((v & 1u) == 0) {
    std::fill_n(f, 4, 0.0f);
    return;
  }
  constexpr int kHeader = 1 + kEmaxBits;
  const int emax = static_cast<int>((v >> 1) & ((1u << kEmaxBits) - 1u)) - kEmaxBias;
  std::uint32_t ublock[4];
  decode_planes_1d(reverse_bits64(v) << kHeader, 4 * rate - kHeader, ublock);
  std::int32_t iblock[4];
  for (int i = 0; i < 4; ++i) iblock[i] = negabinary_to_int(ublock[i]);
  inv_lift(iblock, 1);
  dequantize<4>(iblock, emax, f);
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  std::memcpy(p, &v, 8);
}

/// Compress a 1D field at rate <= 16 straight into `out`, one register-sized
/// block at a time; writes exactly ceil(blocks * 4 * rate / 64) words.
void compress_1d_register(const float* in, std::size_t nx, int rate, std::uint8_t* out) {
  const int block_bits = 4 * rate;
  std::uint64_t acc = 0;
  int fill = 0;
  auto emit = [&](std::uint64_t v) {
    acc |= v << fill;
    fill += block_bits;
    if (fill >= 64) {
      store_le64(out, acc);
      out += 8;
      fill -= 64;
      acc = fill > 0 ? v >> (block_bits - fill) : 0;
    }
  };
  const std::size_t full = nx / 4;
  for (std::size_t b = 0; b < full; ++b) emit(encode_block_1d(in + 4 * b, rate));
  if (nx % 4 != 0) {
    // Partial last block: replicate the final value as padding.
    float block[4];
    for (std::size_t i = 0; i < 4; ++i) block[i] = in[std::min(4 * full + i, nx - 1)];
    emit(encode_block_1d(block, rate));
  }
  if (fill > 0) store_le64(out, acc);
}

void decompress_1d_register(std::span<const std::uint8_t> in, std::size_t nx, int rate,
                            float* out) {
  const auto block_bits = static_cast<std::size_t>(4 * rate);
  const std::uint64_t mask = block_bits < 64 ? (std::uint64_t{1} << block_bits) - 1u : ~0ull;
  const std::size_t blocks = (nx + 3) / 4;
  for (std::size_t b = 0; b < blocks; ++b) {
    // A block spans at most two words at its fixed offset.
    const std::size_t bit = b * block_bits;
    const int shift = static_cast<int>(bit % 64);
    std::uint64_t v = load_le_word(in, bit / 64) >> shift;
    if (static_cast<std::size_t>(shift) + block_bits > 64) {
      v |= load_le_word(in, bit / 64 + 1) << (64 - shift);
    }
    float block[4];
    decode_block_1d(v & mask, rate, block);
    const std::size_t keep = std::min<std::size_t>(4, nx - 4 * b);
    std::copy_n(block, keep, out + 4 * b);
  }
}

template <int Dims>
struct BlockTraits {
  static constexpr int kSize = 1 << (2 * Dims);
};

template <int Dims>
void fwd_xform(std::int32_t* b) {
  if constexpr (Dims == 1) {
    fwd_lift(b, 1);
  } else if constexpr (Dims == 2) {
    for (int y = 0; y < 4; ++y) fwd_lift(b + 4 * y, 1);
    for (int x = 0; x < 4; ++x) fwd_lift(b + x, 4);
  } else {
    for (int z = 0; z < 4; ++z)
      for (int y = 0; y < 4; ++y) fwd_lift(b + 16 * z + 4 * y, 1);
    for (int z = 0; z < 4; ++z)
      for (int x = 0; x < 4; ++x) fwd_lift(b + 16 * z + x, 4);
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 4; ++x) fwd_lift(b + 4 * y + x, 16);
  }
}

template <int Dims>
void inv_xform(std::int32_t* b) {
  if constexpr (Dims == 1) {
    inv_lift(b, 1);
  } else if constexpr (Dims == 2) {
    for (int x = 0; x < 4; ++x) inv_lift(b + x, 4);
    for (int y = 0; y < 4; ++y) inv_lift(b + 4 * y, 1);
  } else {
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 4; ++x) inv_lift(b + 4 * y + x, 16);
    for (int z = 0; z < 4; ++z)
      for (int x = 0; x < 4; ++x) inv_lift(b + 16 * z + x, 4);
    for (int z = 0; z < 4; ++z)
      for (int y = 0; y < 4; ++y) inv_lift(b + 16 * z + 4 * y, 1);
  }
}

/// Per-mode coding bounds for one block; kmin is the lowest bit plane kept.
struct BlockCoding {
  std::size_t budget;
  int kmin;
  bool pad;  // fixed rate pads to exactly `budget` + header bits
};

template <int Dims>
BlockCoding block_coding(ZfpMode mode, int rate, int precision, double tolerance, int emax) {
  constexpr int BS = BlockTraits<Dims>::kSize;
  switch (mode) {
    case ZfpMode::FixedPrecision:
      return {std::size_t{10} + 64u * BS, kIntPrec - precision, false};
    case ZfpMode::FixedAccuracy: {
      // Keep every plane whose original-domain weight exceeds the
      // tolerance; guard planes absorb quantization + transform gain.
      int minexp = 0;
      (void)std::frexp(tolerance, &minexp);
      int kmin = minexp + (kIntPrec - 2) - emax - (2 + Dims);
      if (kmin < 0) kmin = 0;
      if (kmin > kIntPrec) kmin = kIntPrec;
      return {std::size_t{10} + 64u * BS, kmin, false};
    }
    case ZfpMode::FixedRate:
    default:
      return {static_cast<std::size_t>(rate) * BS, 0, true};
  }
}

template <int Dims>
void encode_block(BitWriter& w, const float* fblock, ZfpMode mode, int rate, int precision,
                  double tolerance) {
  constexpr int BS = BlockTraits<Dims>::kSize;
  const std::size_t block_start = w.bit_size();
  const std::size_t rate_bits = static_cast<std::size_t>(rate) * BS;

  const std::uint32_t fmax = max_finite_abs_bits<BS>(fblock);
  if (fmax == 0) {
    w.put_bit(0);  // all-zero block
    if (mode == ZfpMode::FixedRate) w.pad_to(block_start + rate_bits);
    return;
  }
  w.put_bit(1);
  const int emax = float_exponent(fmax);
  w.put_bits(static_cast<std::uint64_t>(emax + kEmaxBias), kEmaxBits);

  std::int32_t iblock[BS];
  quantize<BS>(fblock, emax, iblock);
  fwd_xform<Dims>(iblock);

  std::uint32_t ublock[BS];
  if constexpr (Dims == 1) {
    for (int i = 0; i < BS; ++i) ublock[i] = int_to_negabinary(iblock[i]);
  } else {
    const auto& p = perm<Dims>();
    for (int i = 0; i < BS; ++i) {
      ublock[i] = int_to_negabinary(iblock[p[static_cast<std::size_t>(i)]]);
    }
  }

  const BlockCoding c = block_coding<Dims>(mode, rate, precision, tolerance, emax);
  const std::size_t used = w.bit_size() - block_start;
  encode_ints<BS>(w, ublock, c.pad ? c.budget - used : c.budget, c.kmin);
  if (c.pad) w.pad_to(block_start + c.budget);
}

template <int Dims>
void decode_block(BitReader& r, float* fblock, ZfpMode mode, int rate, int precision,
                  double tolerance) {
  constexpr int BS = BlockTraits<Dims>::kSize;
  const std::size_t block_start = r.tell();
  const std::size_t rate_bits = static_cast<std::size_t>(rate) * BS;

  // One peek covers the nonzero flag and the exponent; the skip settles the
  // position for either outcome with a single reader advance.
  const std::uint64_t hdr = r.peek_bits(1 + kEmaxBits);
  if ((hdr & 1u) == 0) {
    r.skip(1);
    std::fill_n(fblock, BS, 0.0f);
    if (mode == ZfpMode::FixedRate) r.seek(block_start + rate_bits);
    return;
  }
  r.skip(1 + kEmaxBits);
  const int emax =
      static_cast<int>((hdr >> 1) & ((1u << kEmaxBits) - 1u)) - kEmaxBias;

  std::uint32_t ublock[BS];
  const BlockCoding c = block_coding<Dims>(mode, rate, precision, tolerance, emax);
  const std::size_t used = r.tell() - block_start;
  decode_ints<BS>(r, ublock, c.pad ? c.budget - used : c.budget, c.kmin);
  if (c.pad) r.seek(block_start + c.budget);

  std::int32_t iblock[BS];
  if constexpr (Dims == 1) {
    // The 1D sequency permutation is the identity; skip the table lookup
    // (and its static-init guard) entirely.
    for (int i = 0; i < BS; ++i) iblock[i] = negabinary_to_int(ublock[i]);
  } else {
    const auto& p = perm<Dims>();
    for (int i = 0; i < BS; ++i) {
      iblock[p[static_cast<std::size_t>(i)]] = negabinary_to_int(ublock[i]);
    }
  }

  inv_xform<Dims>(iblock);
  dequantize<BS>(iblock, emax, fblock);
}

/// Gather a (possibly partial) block, replicating edge values as padding.
template <int Dims>
void gather(const float* data, const ZfpField& f, std::size_t bx, std::size_t by,
            std::size_t bz, float* block) {
  for (std::size_t z = 0; z < (Dims >= 3 ? 4u : 1u); ++z) {
    const std::size_t sz = std::min(4 * bz + z, f.nz - 1);
    for (std::size_t y = 0; y < (Dims >= 2 ? 4u : 1u); ++y) {
      const std::size_t sy = std::min(4 * by + y, f.ny - 1);
      for (std::size_t x = 0; x < 4u; ++x) {
        const std::size_t sx = std::min(4 * bx + x, f.nx - 1);
        block[16 * z + 4 * y + x] = data[(sz * f.ny + sy) * f.nx + sx];
      }
    }
  }
}

/// Scatter a block back, dropping padded lanes.
template <int Dims>
void scatter(const float* block, const ZfpField& f, std::size_t bx, std::size_t by,
             std::size_t bz, float* data) {
  for (std::size_t z = 0; z < (Dims >= 3 ? 4u : 1u); ++z) {
    const std::size_t dz = 4 * bz + z;
    if (dz >= f.nz) break;
    for (std::size_t y = 0; y < (Dims >= 2 ? 4u : 1u); ++y) {
      const std::size_t dy = 4 * by + y;
      if (dy >= f.ny) break;
      for (std::size_t x = 0; x < 4u; ++x) {
        const std::size_t dx = 4 * bx + x;
        if (dx >= f.nx) break;
        data[(dz * f.ny + dy) * f.nx + dx] = block[16 * z + 4 * y + x];
      }
    }
  }
}

struct ModeParams {
  ZfpMode mode;
  int rate;
  int precision;
  double tolerance;
};

/// Kept out of line: inlined into ZfpCodec::compress beside the register
/// coder, the 1D block loop at rates 17..32 ran about 10% slower (GCC 12).
template <int Dims>
[[gnu::noinline]] void compress_impl(const float* in, const ZfpField& f, const ModeParams& m,
                                     BitWriter& w) {
  constexpr int BS = BlockTraits<Dims>::kSize;
  float block[64];
  const std::size_t bx_n = (f.nx + 3) / 4;
  const std::size_t by_n = Dims >= 2 ? (f.ny + 3) / 4 : 1;
  const std::size_t bz_n = Dims >= 3 ? (f.nz + 3) / 4 : 1;
  for (std::size_t bz = 0; bz < bz_n; ++bz) {
    for (std::size_t by = 0; by < by_n; ++by) {
      for (std::size_t bx = 0; bx < bx_n; ++bx) {
        // For 1D blocks only the first 4 lanes are populated.
        std::fill_n(block, BS, 0.0f);
        gather<Dims>(in, f, bx, by, bz, block);
        encode_block<Dims>(w, block, m.mode, m.rate, m.precision, m.tolerance);
      }
    }
  }
}

template <int Dims>
void decompress_impl(BitReader& r, const ZfpField& f, const ModeParams& m, float* out) {
  float block[64];
  const std::size_t bx_n = (f.nx + 3) / 4;
  const std::size_t by_n = Dims >= 2 ? (f.ny + 3) / 4 : 1;
  const std::size_t bz_n = Dims >= 3 ? (f.nz + 3) / 4 : 1;
  for (std::size_t bz = 0; bz < bz_n; ++bz) {
    for (std::size_t by = 0; by < by_n; ++by) {
      for (std::size_t bx = 0; bx < bx_n; ++bx) {
        decode_block<Dims>(r, block, m.mode, m.rate, m.precision, m.tolerance);
        scatter<Dims>(block, f, bx, by, bz, out);
      }
    }
  }
}

void validate_field(const ZfpField& f) {
  if (f.dims < 1 || f.dims > 3) throw std::invalid_argument("ZfpField: dims must be 1..3");
  if (f.nx == 0 || f.ny == 0 || f.nz == 0) {
    throw std::invalid_argument("ZfpField: zero extent");
  }
  if (f.dims < 3 && f.nz != 1) throw std::invalid_argument("ZfpField: nz must be 1 for dims<3");
  if (f.dims < 2 && f.ny != 1) throw std::invalid_argument("ZfpField: ny must be 1 for dims<2");
}

}  // namespace

std::size_t ZfpField::blocks() const {
  const std::size_t bx = (nx + 3) / 4;
  const std::size_t by = dims >= 2 ? (ny + 3) / 4 : 1;
  const std::size_t bz = dims >= 3 ? (nz + 3) / 4 : 1;
  return bx * by * bz;
}

ZfpCodec::ZfpCodec(int rate) : rate_(rate) {
  // Rate 4 is the paper's most aggressive setting; below that a 1D block's
  // bit budget cannot even hold the exponent header.
  if (rate < 4 || rate > 32) throw std::invalid_argument("ZfpCodec: rate must be 4..32");
}

ZfpCodec ZfpCodec::fixed_precision(int precision) {
  if (precision < 1 || precision > 32) {
    throw std::invalid_argument("ZfpCodec: precision must be 1..32");
  }
  return ZfpCodec(ZfpMode::FixedPrecision, 32, precision, 0.0);
}

ZfpCodec ZfpCodec::fixed_accuracy(double tolerance) {
  if (!(tolerance > 0.0) || !std::isfinite(tolerance)) {
    throw std::invalid_argument("ZfpCodec: tolerance must be positive and finite");
  }
  return ZfpCodec(ZfpMode::FixedAccuracy, 32, 32, tolerance);
}

std::size_t ZfpCodec::compressed_bytes(const ZfpField& field) const {
  validate_field(field);
  const std::size_t block_values = std::size_t(1) << (2 * field.dims);
  const std::size_t maxbits = mode_ == ZfpMode::FixedRate
                                  ? static_cast<std::size_t>(rate_) * block_values
                                  : 10 + 64 * block_values;  // variable-mode bound
  const std::size_t total_bits = field.blocks() * maxbits;
  return ((total_bits + 63) / 64) * 8;  // word-aligned stream
}

std::size_t ZfpCodec::compress(std::span<const float> in, const ZfpField& field,
                               std::span<std::uint8_t> out) const {
  validate_field(field);
  if (in.size() < field.values()) throw std::invalid_argument("ZfpCodec::compress: input too small");
  const std::size_t need = compressed_bytes(field);
  if (out.size() < need) throw std::invalid_argument("ZfpCodec::compress: output too small");

  if (register_sized(mode_, field, rate_)) {
    compress_1d_register(in.data(), field.nx, rate_, out.data());
    return need;
  }
  const ModeParams m{mode_, rate_, precision_, tolerance_};
  BitWriter w;
  w.reserve_bits(need * 8);  // block loop never reallocates the word buffer
  switch (field.dims) {
    case 1: compress_impl<1>(in.data(), field, m, w); break;
    case 2: compress_impl<2>(in.data(), field, m, w); break;
    case 3: compress_impl<3>(in.data(), field, m, w); break;
    default: break;
  }
  const std::vector<std::uint8_t> bytes = w.take();
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return bytes.size();
}

void ZfpCodec::decompress(std::span<const std::uint8_t> in, const ZfpField& field,
                          std::span<float> out) const {
  validate_field(field);
  if (out.size() < field.values()) throw std::invalid_argument("ZfpCodec::decompress: output too small");
  if (register_sized(mode_, field, rate_)) {
    decompress_1d_register(in, field.nx, rate_, out.data());
    return;
  }
  const ModeParams m{mode_, rate_, precision_, tolerance_};
  BitReader r(in);
  switch (field.dims) {
    case 1: decompress_impl<1>(r, field, m, out.data()); break;
    case 2: decompress_impl<2>(r, field, m, out.data()); break;
    case 3: decompress_impl<3>(r, field, m, out.data()); break;
    default: break;
  }
}

double ZfpCodec::error_bound(double max_abs) const {
  if (max_abs <= 0.0) return 0.0;
  // Truncating to the rate budget leaves ~2^(emax - planes + 5) of error
  // (30-bit quantization aligned at the block exponent, transform gain
  // <= 2^dims). `planes` is the bit planes the budget can actually code:
  // the per-block header (zero marker + biased emax) is paid out of the
  // same fixed-rate budget, and on 1D blocks (4 values) it costs up to
  // three whole planes — at low rates that dominates the error.
  int emax = 0;
  (void)std::frexp(max_abs, &emax);
  const int header_planes = (1 + kEmaxBits + 3) / 4;  // worst case: 1D blocks
  const int planes = rate_ > header_planes ? rate_ - header_planes : 0;
  return std::ldexp(1.0, emax - planes + 5);
}

}  // namespace gcmpi::comp
