// CRC32C (Castagnoli) known-answer and property tests. The reference
// vectors are the iSCSI ones from RFC 3720 Appendix B.4 / the original
// Castagnoli paper, which pin both the polynomial (0x1EDC6F41 reflected)
// and the bit conventions (reflected in/out, init and final XOR ~0).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "util/crc32c.hpp"

namespace {

using gcmpi::util::crc32c;
using gcmpi::util::crc32c_portable;
using gcmpi::util::crc32c_reference;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  gcmpi::sim::Rng rng(seed);
  std::vector<std::uint8_t> buf(n);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  return buf;
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  EXPECT_EQ(crc32c_portable(nullptr, 0), 0u);
  EXPECT_EQ(crc32c_reference(nullptr, 0), 0u);
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // 32 bytes of zeros.
  std::array<std::uint8_t, 32> zeros{};
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  // 32 bytes of 0xFF.
  std::array<std::uint8_t, 32> ones{};
  ones.fill(0xFF);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  // Bytes 0x00..0x1F ascending.
  std::array<std::uint8_t, 32> ascending{};
  std::iota(ascending.begin(), ascending.end(), std::uint8_t{0});
  EXPECT_EQ(crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);

  // Bytes 0x1F..0x00 descending.
  std::array<std::uint8_t, 32> descending{};
  for (std::size_t i = 0; i < descending.size(); ++i) {
    descending[i] = static_cast<std::uint8_t>(0x1F - i);
  }
  EXPECT_EQ(crc32c(descending.data(), descending.size()), 0x113FDB5Cu);
}

TEST(Crc32c, ClassicStringVectors) {
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c(digits.data(), digits.size()), 0xE3069283u);
  EXPECT_EQ(crc32c_portable(digits.data(), digits.size()), 0xE3069283u);
  const std::string a = "a";
  EXPECT_EQ(crc32c(a.data(), a.size()), 0xC1D04330u);
}

// `crc32c` dispatches to the SSE4.2 instruction where the CPU has it, so the
// slice-by-8 tables run here only through crc32c_portable: both are checked
// against the bit-at-a-time reference.
TEST(Crc32c, SliceBy8MatchesBitwiseReference) {
  gcmpi::sim::Rng rng(0xC5C5);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.next_below(4096);
    const auto buf = random_bytes(n, rng.next_u64());
    const std::uint32_t want = crc32c_reference(buf.data(), buf.size());
    EXPECT_EQ(crc32c_portable(buf.data(), buf.size()), want) << "length " << n;
    EXPECT_EQ(crc32c(buf.data(), buf.size()), want) << "length " << n;
  }
  // One large buffer, one-shot and chained over uneven pieces.
  const auto big = random_bytes(std::size_t{1} << 20, 0xB16);
  const std::uint32_t want = crc32c_reference(big.data(), big.size());
  EXPECT_EQ(crc32c_portable(big.data(), big.size()), want);
  EXPECT_EQ(crc32c(big.data(), big.size()), want);
  std::uint32_t portable = 0;
  std::uint32_t dispatched = 0;
  for (std::size_t at = 0, piece = 1; at < big.size(); piece = piece * 3 + 1) {
    const std::size_t len = std::min(piece % 9001, big.size() - at);
    portable = crc32c_portable(big.data() + at, len, portable);
    dispatched = crc32c(big.data() + at, len, dispatched);
    at += len;
  }
  EXPECT_EQ(portable, want);
  EXPECT_EQ(dispatched, want);
}

TEST(Crc32c, IncrementalChainingEqualsOneShot) {
  gcmpi::sim::Rng rng(0xABCD);
  std::vector<std::uint8_t> buf(10'000);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  const std::uint32_t whole = crc32c(buf.data(), buf.size());

  // Split at every mix of aligned and unaligned boundaries.
  for (const std::size_t cut : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                std::size_t{64}, std::size_t{4097}, buf.size() - 3}) {
    std::uint32_t crc = crc32c(buf.data(), cut);
    crc = crc32c(buf.data() + cut, buf.size() - cut, crc);
    EXPECT_EQ(crc, whole) << "cut at " << cut;
  }

  // Byte-at-a-time chaining.
  std::uint32_t crc = 0;
  for (const std::uint8_t b : buf) crc = crc32c(&b, 1, crc);
  EXPECT_EQ(crc, whole);
}

TEST(Crc32c, MisalignedStartMatchesAligned) {
  // Every start offset within two words and every length up to eight words
  // plus a tail: the slice-by-8 head loop and the hardware path's byte tail
  // must agree with the reference on unaligned buffers.
  const auto storage = random_bytes(16 + 68, 99);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len < 68; ++len) {
      const std::uint8_t* p = storage.data() + offset;
      const std::uint32_t want = crc32c_reference(p, len);
      EXPECT_EQ(crc32c_portable(p, len), want) << "offset " << offset << " length " << len;
      EXPECT_EQ(crc32c(p, len), want) << "offset " << offset << " length " << len;
      // Chained: split every fifth byte, the tail seeded by the head's CRC.
      for (std::size_t cut = 0; cut <= len; cut += 5) {
        EXPECT_EQ(crc32c(p + cut, len - cut, crc32c(p, cut)), want);
        EXPECT_EQ(crc32c_portable(p + cut, len - cut, crc32c_portable(p, cut)), want);
      }
    }
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> buf(512, 0x5A);
  const std::uint32_t clean = crc32c(buf.data(), buf.size());
  for (const std::size_t bit : {std::size_t{0}, std::size_t{1}, std::size_t{2048},
                                buf.size() * 8 - 1}) {
    auto flipped = buf;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32c(flipped.data(), flipped.size()), clean) << "bit " << bit;
  }
}

}  // namespace
