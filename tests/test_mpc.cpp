// MPC codec tests: bit-exact losslessness on every kind of payload,
// dimensionality behaviour, chunking, corruption handling, tuning.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "compress/bit_transpose.hpp"
#include "compress/mpc.hpp"
#include "data/datasets.hpp"
#include "sim/rng.hpp"
#include "support/payloads.hpp"

namespace {

using gcmpi::comp::MpcCodec;

std::vector<float> roundtrip(const MpcCodec& codec, const std::vector<float>& in,
                             std::size_t* compressed_size = nullptr) {
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  EXPECT_LE(size, buf.size());
  if (compressed_size != nullptr) *compressed_size = size;
  std::vector<float> out(in.size(), -99.0f);
  const std::size_t n = codec.decompress({buf.data(), size}, out);
  EXPECT_EQ(n, in.size());
  return out;
}

void expect_bit_exact(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * 4), 0);
}

TEST(Mpc, RejectsBadParameters) {
  EXPECT_THROW(MpcCodec(0), std::invalid_argument);
  EXPECT_THROW(MpcCodec(33), std::invalid_argument);
  EXPECT_THROW(MpcCodec(1, 0), std::invalid_argument);
  EXPECT_THROW(MpcCodec(1, 100), std::invalid_argument);  // not multiple of 32
  EXPECT_NO_THROW(MpcCodec(32, 32));
}

TEST(Mpc, EmptyInput) {
  MpcCodec codec(1);
  std::vector<float> in;
  std::size_t size = 0;
  auto out = roundtrip(codec, in, &size);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(size, 20u);  // bare header
}

TEST(Mpc, LosslessOnSmoothData) {
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(10000, 1e-4, 5);
  std::size_t size = 0;
  auto out = roundtrip(codec, in, &size);
  expect_bit_exact(in, out);
  EXPECT_LT(size, in.size() * 4);  // actually compresses
}

TEST(Mpc, LosslessOnRandomBits) {
  gcmpi::sim::Rng rng(17);
  std::vector<float> in(5000);
  for (auto& x : in) {
    const std::uint32_t bits = rng.next_u32();
    std::memcpy(&x, &bits, 4);  // arbitrary bit patterns incl. NaN/Inf/denormal
  }
  MpcCodec codec(1);
  std::size_t size = 0;
  auto out = roundtrip(codec, in, &size);
  expect_bit_exact(in, out);
  // Incompressible data expands slightly (mask overhead <= ~3.5% + header).
  EXPECT_LE(size, codec.max_compressed_bytes(in.size()));
  EXPECT_GT(size, in.size() * 4);
}

TEST(Mpc, LosslessOnSpecialValues) {
  std::vector<float> in = {0.0f, -0.0f, INFINITY, -INFINITY, NAN, 1e-45f, -1e-45f, 3.4e38f};
  in.resize(64, NAN);
  MpcCodec codec(2);
  auto out = roundtrip(codec, in);
  expect_bit_exact(in, out);
}

TEST(Mpc, ConstantDataCompressesMassively) {
  std::vector<float> in(65536, 3.14159f);
  MpcCodec codec(1);
  std::size_t size = 0;
  auto out = roundtrip(codec, in, &size);
  expect_bit_exact(in, out);
  const double ratio = static_cast<double>(in.size() * 4) / static_cast<double>(size);
  EXPECT_GT(ratio, 20.0);  // the paper sees CR up to 31 on duplicated data
}

TEST(Mpc, NonMultipleOf32AndChunkTails) {
  MpcCodec codec(1, 64);
  for (std::size_t n : {1u, 31u, 32u, 33u, 63u, 65u, 127u, 1000u}) {
    const auto in = gcmpi::data::smooth_field(n, 1e-3, n);
    auto out = roundtrip(codec, in);
    expect_bit_exact(in, out);
  }
}

TEST(Mpc, DimensionalityMatchesInterleaving) {
  // Data interleaving 4 fields compresses best at dimensionality 4.
  const auto in = gcmpi::data::interleaved_fields(1 << 15, 4, 1e-5, 3);
  std::size_t size_d1 = 0, size_d4 = 0;
  (void)roundtrip(MpcCodec(1), in, &size_d1);
  auto out = roundtrip(MpcCodec(4), in, &size_d4);
  expect_bit_exact(in, out);
  EXPECT_LT(size_d4, size_d1);
  EXPECT_EQ(MpcCodec::tune_dimensionality(in), 4);
}

TEST(Mpc, ChunkCountMatchesThreadBlocks) {
  MpcCodec codec(1, 1024);
  EXPECT_EQ(codec.chunk_count(1), 1u);
  EXPECT_EQ(codec.chunk_count(1024), 1u);
  EXPECT_EQ(codec.chunk_count(1025), 2u);
  EXPECT_EQ(codec.chunk_count(10 * 1024), 10u);
}

TEST(Mpc, EncodedValuesHeaderPeek) {
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(777, 1e-3, 9);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  EXPECT_EQ(MpcCodec::encoded_values({buf.data(), size}), 777u);
}

TEST(Mpc, CorruptInputsThrow) {
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(512, 1e-3, 1);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  std::vector<float> out(in.size());

  // Truncated payload.
  EXPECT_THROW((void)codec.decompress({buf.data(), size / 2}, out), std::exception);
  // Bad magic.
  std::vector<std::uint8_t> bad(buf.begin(), buf.begin() + static_cast<long>(size));
  bad[0] ^= 0xFF;
  EXPECT_THROW((void)codec.decompress(bad, out), std::invalid_argument);
  // Output too small.
  std::vector<float> tiny(in.size() - 1);
  EXPECT_THROW((void)codec.decompress({buf.data(), size}, tiny), std::invalid_argument);
}

// Word-level view of an MPC stream: its size-table words, and which payload
// words are tile masks and which are kept bit planes.
struct MpcStreamMap {
  std::vector<std::size_t> size_words;
  std::vector<std::size_t> mask_words;
  std::vector<std::size_t> plane_words;
};

std::uint32_t word_at(const std::vector<std::uint8_t>& s, std::size_t w) {
  std::uint32_t v = 0;
  std::memcpy(&v, s.data() + w * 4, 4);
  return v;
}

void set_word(std::vector<std::uint8_t>& s, std::size_t w, std::uint32_t v) {
  std::memcpy(s.data() + w * 4, &v, 4);
}

MpcStreamMap map_stream(const std::vector<std::uint8_t>& s, std::size_t n, std::size_t chunk) {
  MpcStreamMap m;
  const std::size_t chunks = word_at(s, 4);
  std::size_t w = 5 + chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    m.size_words.push_back(5 + c);
    const std::size_t count = std::min(chunk, n - c * chunk);
    for (std::size_t t = 0; t < (count + 31) / 32; ++t) {
      const std::uint32_t mask = word_at(s, w);
      m.mask_words.push_back(w++);
      for (int b = 0; b < std::popcount(mask); ++b) m.plane_words.push_back(w++);
    }
  }
  EXPECT_EQ(w * 4, s.size());
  return m;
}

TEST(Mpc, MutatedStreamsThrowOrDecodeInBounds) {
  // Seeded mutations of valid streams: flipped tile masks, flipped bit
  // planes, and size-table entries flipped or set to the edges of the
  // per-chunk bound. Every decode must throw or restore exactly n values;
  // under ASan no decode may read or write outside its buffers.
  constexpr std::size_t kValues = 2500;  // partial last chunk and tail tile
  gcmpi::sim::Rng rng(gcmpi::testing::test_seed() ^ 0x6d7574u);
  std::size_t decodes = 0;
  std::size_t thrown = 0;
  for (const auto& info : gcmpi::data::table3_datasets()) {
    const auto in = gcmpi::data::generate(info.name, kValues, 7);
    for (const int dim : {1, info.mpc_dimensionality, 5}) {
      for (const std::size_t chunk : {std::size_t{96}, std::size_t{1024}}) {
        const MpcCodec codec(dim, chunk);
        std::vector<std::uint8_t> valid(codec.max_compressed_bytes(kValues));
        valid.resize(codec.compress(in, valid));
        const MpcStreamMap map = map_stream(valid, kValues, chunk);
        const auto tile_bound =
            static_cast<std::uint32_t>((std::min(chunk, kValues) + 31) / 32 * 33);
        for (int trial = 0; trial < 90; ++trial) {
          std::vector<std::uint8_t> bad = valid;
          const int kind = trial % 3;
          const auto& words = kind == 0   ? map.mask_words
                              : kind == 1 ? map.plane_words
                                          : map.size_words;
          if (words.empty()) continue;
          const std::size_t w = words[rng.next_u64() % words.size()];
          const std::uint32_t old = word_at(bad, w);
          std::uint32_t v = old ^ (1u << (rng.next_u32() % 32));
          if (kind == 2 && trial % 2 == 0) {
            // Size-table entries at and around the bound the decoder checks.
            const std::uint32_t edges[] = {0u, tile_bound - 1, tile_bound, tile_bound + 1,
                                           old + 1, old - 1};
            v = edges[rng.next_u32() % 6];
          }
          set_word(bad, w, v);
          std::vector<float> out(kValues);
          ++decodes;
          try {
            EXPECT_EQ(codec.decompress(bad, out), kValues) << info.name << " dim=" << dim;
          } catch (const std::exception&) {
            ++thrown;
          }
        }
      }
    }
  }
  EXPECT_GT(decodes, 1000u);
  EXPECT_GT(thrown, decodes / 4);  // the mutations do reach the checks
}

TEST(Mpc, HeaderWithNoValuesButChunksIsRejected) {
  // n = 0 with a non-empty size table used to skip the chunk-count check,
  // and the second chunk then decoded past the (empty) output.
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(2048, 1e-3, 3);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  buf.resize(codec.compress(in, buf));
  set_word(buf, 6, word_at(buf, 5));  // chunk 1 re-reads chunk 0's words
  set_word(buf, 5, 0);
  set_word(buf, 1, 0);  // n = 0
  std::vector<float> out;
  EXPECT_THROW((void)codec.decompress(buf, out), std::invalid_argument);
}

TEST(Mpc, OutputBufferTooSmallThrows) {
  MpcCodec codec(1);
  std::vector<float> in(1024, 1.0f);
  std::vector<std::uint8_t> small(16);
  EXPECT_THROW((void)codec.compress(in, small), std::invalid_argument);
}

TEST(Mpc, PartitionedStreamsConcatenateLosslessly) {
  // The MPC-OPT framework compresses contiguous sub-ranges independently;
  // verify chunk-aligned splits restore the original exactly and cost
  // roughly the same compressed size as one stream.
  const auto in = gcmpi::data::smooth_field(1 << 16, 1e-4, 21);
  MpcCodec codec(1, 1024);
  std::size_t whole = 0;
  (void)roundtrip(codec, in, &whole);

  const std::size_t half = (in.size() / 2 / 1024) * 1024;
  std::vector<float> a(in.begin(), in.begin() + static_cast<long>(half));
  std::vector<float> b(in.begin() + static_cast<long>(half), in.end());
  std::size_t sa = 0, sb = 0;
  auto ra = roundtrip(codec, a, &sa);
  auto rb = roundtrip(codec, b, &sb);
  expect_bit_exact(a, ra);
  expect_bit_exact(b, rb);
  const double overhead = static_cast<double>(sa + sb) / static_cast<double>(whole);
  EXPECT_NEAR(overhead, 1.0, 0.01);  // "negligible impact on the ratio"
}

// Reference transpose straight from the definition M'[r][c] = M[c][r].
std::vector<std::uint32_t> naive_transpose32(const std::uint32_t* tile) {
  std::vector<std::uint32_t> naive(32, 0u);
  for (int r = 0; r < 32; ++r) {
    for (int c = 0; c < 32; ++c) {
      naive[static_cast<std::size_t>(r)] |= ((tile[c] >> r) & 1u) << c;
    }
  }
  return naive;
}

// Random tiles plus the structured ones a byte-regrouping kernel is most
// likely to get wrong: all bits, no bits, one bit per row (a rotating
// column), the diagonal, and only the top bit plane.
std::vector<std::vector<std::uint32_t>> transpose32_tiles() {
  std::vector<std::vector<std::uint32_t>> tiles;
  tiles.emplace_back(32, 0xFFFFFFFFu);
  tiles.emplace_back(32, 0u);
  tiles.emplace_back(32, 0x80000000u);
  std::vector<std::uint32_t> diagonal(32), anti(32), one_per_row(32);
  for (std::uint32_t r = 0; r < 32; ++r) {
    diagonal[r] = 1u << r;
    anti[r] = 1u << (31 - r);
    one_per_row[r] = 1u << ((r * 7 + 3) % 32);
  }
  tiles.push_back(diagonal);
  tiles.push_back(anti);
  tiles.push_back(one_per_row);
  gcmpi::sim::Rng rng(101);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint32_t> tile(32);
    for (auto& w : tile) w = rng.next_u32();
    tiles.push_back(tile);
  }
  return tiles;
}

void expect_transpose32(void (*transpose)(std::uint32_t*), const char* kernel) {
  for (const auto& tile : transpose32_tiles()) {
    std::vector<std::uint32_t> t = tile;
    transpose(t.data());
    EXPECT_EQ(t, naive_transpose32(tile.data())) << kernel;
    // Involution: forward o forward == identity.
    transpose(t.data());
    EXPECT_EQ(t, tile) << kernel;
  }
}

TEST(Mpc, BitTranspose32MatchesNaiveAndInverts) {
  expect_transpose32(gcmpi::comp::bit_transpose32, "portable");
#if defined(__SSE2__)
  expect_transpose32(gcmpi::comp::bit_transpose32_sse2, "sse2");
#endif
}

TEST(Mpc, BitTranspose64MatchesNaiveAndInverts) {
  gcmpi::sim::Rng rng(202);
  for (int trial = 0; trial < 32; ++trial) {
    std::uint64_t tile[64];
    for (auto& w : tile) w = rng.next_u64();

    std::uint64_t naive[64] = {};
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < 64; ++c) {
        naive[r] |= ((tile[c] >> r) & 1ull) << c;
      }
    }

    std::uint64_t fast[64];
    std::memcpy(fast, tile, sizeof(tile));
    gcmpi::comp::bit_transpose64(fast);
    EXPECT_EQ(std::memcmp(fast, naive, sizeof(naive)), 0);

    gcmpi::comp::bit_transpose64(fast);
    EXPECT_EQ(std::memcmp(fast, tile, sizeof(tile)), 0);
  }
}

class MpcDimSweep : public ::testing::TestWithParam<int> {};

TEST_P(MpcDimSweep, LosslessAtEveryDimensionality) {
  const int dim = GetParam();
  MpcCodec codec(dim);
  const auto in = gcmpi::data::interleaved_fields(8192, 3, 1e-4,
                                                  static_cast<std::uint64_t>(dim));
  auto out = roundtrip(codec, in);
  expect_bit_exact(in, out);
}

INSTANTIATE_TEST_SUITE_P(Dims, MpcDimSweep, ::testing::Values(1, 2, 3, 4, 8, 16, 32));

}  // namespace

namespace {

using gcmpi::comp::MpcCodec64;

std::vector<double> roundtrip64(const MpcCodec64& codec, const std::vector<double>& in,
                                std::size_t* compressed_size = nullptr) {
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  EXPECT_LE(size, buf.size());
  if (compressed_size != nullptr) *compressed_size = size;
  std::vector<double> out(in.size(), -99.0);
  EXPECT_EQ(codec.decompress({buf.data(), size}, out), in.size());
  return out;
}

TEST(Mpc64, RejectsBadParameters) {
  EXPECT_THROW(MpcCodec64(0), std::invalid_argument);
  EXPECT_THROW(MpcCodec64(65), std::invalid_argument);
  EXPECT_THROW(MpcCodec64(1, 100), std::invalid_argument);  // not multiple of 64
}

TEST(Mpc64, LosslessOnSmoothDoubles) {
  std::vector<double> in(20000);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(0.0007 * static_cast<double>(i)) * 42.0;
  }
  MpcCodec64 codec(1);
  std::size_t size = 0;
  auto out = roundtrip64(codec, in, &size);
  ASSERT_EQ(std::memcmp(in.data(), out.data(), in.size() * 8), 0);
  EXPECT_LT(size, in.size() * 8);
}

TEST(Mpc64, LosslessOnRandomDoubleBits) {
  gcmpi::sim::Rng rng(31);
  std::vector<double> in(4099);
  for (auto& x : in) {
    const std::uint64_t bits = rng.next_u64();
    std::memcpy(&x, &bits, 8);
  }
  MpcCodec64 codec(1);
  auto out = roundtrip64(codec, in);
  ASSERT_EQ(std::memcmp(in.data(), out.data(), in.size() * 8), 0);
}

TEST(Mpc64, ConstantDoublesCompressHard) {
  std::vector<double> in(1 << 15, -2.5);
  MpcCodec64 codec(1);
  std::size_t size = 0;
  auto out = roundtrip64(codec, in, &size);
  ASSERT_EQ(std::memcmp(in.data(), out.data(), in.size() * 8), 0);
  // Constant doubles: per-tile masks bound the ratio near 64/5.
  EXPECT_GT(static_cast<double>(in.size() * 8) / static_cast<double>(size), 10.0);
}

TEST(Mpc64, SpecialDoubleValues) {
  std::vector<double> in = {0.0, -0.0, INFINITY, -INFINITY, NAN, 5e-324, 1.7e308, -1.0};
  in.resize(128, NAN);
  MpcCodec64 codec(2);
  auto out = roundtrip64(codec, in);
  ASSERT_EQ(std::memcmp(in.data(), out.data(), in.size() * 8), 0);
}

TEST(Mpc64, CorruptHeaderRejected) {
  std::vector<double> in(256, 1.0);
  MpcCodec64 codec(1);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  std::vector<double> out(in.size());
  buf[0] ^= 0xFF;
  EXPECT_THROW((void)codec.decompress({buf.data(), size}, out), std::invalid_argument);
}

TEST(Mpc64, FloatStreamIsNotADoubleStream) {
  // Cross-width confusion must be rejected by magic.
  const auto fin = gcmpi::data::smooth_field(512, 1e-3, 1);
  MpcCodec fcodec(1);
  std::vector<std::uint8_t> buf(fcodec.max_compressed_bytes(fin.size()));
  const std::size_t size = fcodec.compress(fin, buf);
  MpcCodec64 dcodec(1);
  std::vector<double> out(512);
  EXPECT_THROW((void)dcodec.decompress({buf.data(), size}, out), std::invalid_argument);
}

}  // namespace
