// Golden-stream corpus: pins the SHA-256 of the exact compressed bytes each
// codec emits on fixed seeded inputs. The word-parallel fast paths in
// src/compress/ are only allowed because of this file — any rewrite of the
// bit-level hot loops must keep the wire format bit-identical, and these
// hashes are how that invariant is enforced. If a test here fails, the
// change altered the compressed stream; that is a wire-format break, not a
// "just update the hash" situation, unless the PR explicitly versions the
// format.
//
// To regenerate after an *intentional* format change:
//   GCMPI_UPDATE_GOLDEN=1 ./test_golden_streams | grep '{"' (paste into kGolden)
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "compress/bitstream.hpp"
#include "compress/fpc.hpp"
#include "compress/gfc.hpp"
#include "compress/huffman.hpp"
#include "compress/mpc.hpp"
#include "compress/sz.hpp"
#include "compress/zfp.hpp"
#include "sim/rng.hpp"
#include "support/payloads.hpp"
#include "support/sha256.hpp"

namespace {

using namespace gcmpi;
namespace gt = gcmpi::testing;

struct GoldenEntry {
  const char* name;
  const char* sha256;
};

// Pinned digests of each codec's compressed output on the corpus below.
// Generated from the pre-optimization scalar implementations; the
// word-parallel rewrites must reproduce them bit for bit. The entries from
// zfp_1d_pins() were captured from the generic bit-plane coder before the
// register-sized 1D fixed-rate coder replaced it on rates 4..16.
constexpr GoldenEntry kGolden[] = {
    {"mpc/d1/smooth/65536", "83df06838045b369ed1c3b52a95b11913c7c3c49bd391189d1149a8065c656c8"},
    {"mpc/d4/interleaved/32768", "e79d851056e9c2aa55f3a1302b67f098c6c5cb47cb10ffc29d7e1ed56c26044e"},
    {"mpc/d1/special/4099", "ff94e458fbee7835a75298c105b5273dc5c348b6ee3e5e32609ed0c62f542aef"},
    {"mpc/d3/plateaus/4131", "50794dc39dd4fbeb931557d5c5b9ba443f8ae0c94f2403ac1ab87db66dfa7802"},
    {"mpc64/d1/smooth/32768", "742b1c17e7e251bdff2590de6976a4b2e696daf67ab4bab758e1569ec9184735"},
    {"mpc64/d2/special/4097", "0b9d6029b04168b3d789f0392823260ba83a673afbbd8b6b9a0de45415d1c598"},
    {"zfp/r4/d1/65536", "47a49718211adf30cf7e6c2c5124476905fd467f7ea253a8e1b18af23baf54d2"},
    {"zfp/r8/d1/4099", "51d39314f5d7139cac7a1da0a26f46bc8d3082f2dcc318e10afc9ff5ee016a96"},
    {"zfp/r16/d1/65536", "284761de7fc182d801d75f5c773fee544c893b6b582613d14ac04eced90d17db"},
    {"zfp/r8/d2/318x202", "a81f249b99b1a7bb78a6cb949bd4586ca94f94aaed26c7800e3be9872c478ab4"},
    {"zfp/r8/d3/40x31x23", "990de514d7dd85cfdc19cca937d5ce62e28fce409e5157842da22af15beb0a0f"},
    {"zfp/prec14/d2/128x128", "9b96e2edae73688dc889f40dd88c79b78227026ced375c9293d7fb55eff37d8d"},
    {"zfp/acc1e-4/d1/65536", "6e517c3666ad0c5be85b15df30fed2fbc6fd83d1836018b026e806df53ed1831"},
    {"zfp/r4/d1/entropy/4099", "e0672a0fafdd15aee37e016b86ebdd4f9766d97438e3f51fc44c6f0829201340"},
    {"zfp/r4/d1/special/4099", "f285c534583524242fcbb40b08a3e0b18eb2265ad7939edad4f25b80c068e0b0"},
    {"zfp/r4/d1/denormal/4099", "ed80b77f8966561cdfc8616472a502d134ccff2dc6dea86f08480a7a89860d7a"},
    {"zfp/r4/d1/zeroruns/4099", "37a1ce6aaef7143382ed34266713593ffa1a6c96c8b30d1070cfa6e5b528940f"},
    {"zfp/r8/d1/entropy/4099", "375f3d8d4d481ee23ab5e9aa783932f459b591f06aca48dd030b00e3259e2950"},
    {"zfp/r8/d1/special/4099", "722e4e5828997a23d3fd8b611b59024e56a848e9c0e29400ad656bab8fc77ba3"},
    {"zfp/r8/d1/denormal/4099", "bf09fa6108259a8b307eb1752486b7cda660dec68f13b5c27a7cc3c622301a66"},
    {"zfp/r8/d1/zeroruns/4099", "249da02fa506f00c779509936383aa37b78c2271c9611eb3cb421dc6921e1a55"},
    {"zfp/r12/d1/entropy/4099", "c6c07ce08052b024f823eea211f7af8f7606184e0ec21b235ff30bbf7cb87a85"},
    {"zfp/r12/d1/special/4099", "aac17c75320c5c3bf8549f79154d0263d96c08000cb35373e6ac0da90cf80d87"},
    {"zfp/r12/d1/denormal/4099", "00329a4d99dcdb0d58023896e351a8b9f78dcb3053862f9d56fa376dec879b73"},
    {"zfp/r12/d1/zeroruns/4099", "65140da41fa668e2d8b4ad16553f34af18122a9bd6fdd5efcc8f42831cd7d55f"},
    {"zfp/r16/d1/entropy/4099", "e3e8df790c89e77525013f1ef3a38e16f1f8de176022ab77593185bc79275bb1"},
    {"zfp/r16/d1/special/4099", "30b9d06ae0ca71ed376f90edc2e0bbf6b2b739b0c45175ea2a8d13d98b9d76ed"},
    {"zfp/r16/d1/denormal/4099", "2b20792c9eeacc433a0d71ddffa811365d147b6a93a83cd2b6468b785f0f1428"},
    {"zfp/r16/d1/zeroruns/4099", "01eb9f162b1cf11b1211ab311f19daa5dcb36297637af0eb5d560fc55cb7485f"},
    {"zfp/r16/d1/quantized/65537", "287b9031d5c31ac8657794919fb36c9e2664b4e896474afa43cd10d701392d27"},
    {"fpc/smooth/32768", "e4f536c5799e585c50d7b18f3818700c0df8995e2189e24cb84eb4415db8073c"},
    {"fpc/special/4099", "a935aa283f6a613cdace544d8094fae58bfe7148fc736da4d55bb309a4a8ff44"},
    {"sz/eb1e-3/smooth/65536", "71eb60322b7a8c1d5d4e7fdecb6c43ea5b3a9c248ac819cf7b3a05ff8a7fb97d"},
    {"sz/eb1e-2/qnoise/32768", "c39d302c0d493691ef418629c7f001aa8978e25f0d034161d56da86cd12fe4f3"},
    {"gfc/smooth/32768", "61faad051770feb08bc9c0f91a3f5e1a96f1093753ca872c2a72015a6b638049"},
    {"gfc/special/4099", "8914b190407e45179d8c1b16be3db137de9cc1e0739a06fcc899e3193d422ea3"},
    {"huffman/qnoise/65536", "7cfb9af4490de830332a12df5450bef72138f1c4af5d150aebbbadf7b2cfea01"},
};

// SHA-256 of the floats each zfp_1d_pins() stream decodes to, in the same
// order: the decoder must reproduce the parent's values, not merely a
// bounded approximation of the input.
constexpr GoldenEntry kGoldenDecoded[] = {
    {"zfp/r4/d1/entropy/4099", "3b54b437ce9945737d6167ed3218a4c1ce50e7fcf67c1d97402beaa08da3aef0"},
    {"zfp/r4/d1/special/4099", "917e21b8b7e8b6d28e97b23f23df6320ebffacdbbc36a5901ce2460920a77686"},
    {"zfp/r4/d1/denormal/4099", "211e9c712e5a6127f7e3c2852d05afc4760c0702aebb1131372912dd863db20f"},
    {"zfp/r4/d1/zeroruns/4099", "cf068e6b47938bb7c20072061de66dbd9412557468040485e124d05a3745cc19"},
    {"zfp/r8/d1/entropy/4099", "ed426e09633284d1b62b9cb99848c265bdc2da499c0bc4f980f5de621502c9f8"},
    {"zfp/r8/d1/special/4099", "c02fe853c3b1737dc1807c07aed49deabb0f0705ccca0aea0e6a9b56e6698e04"},
    {"zfp/r8/d1/denormal/4099", "3008d46bd3bbd73f6987f50378ae28815c5d917c54c3960d5027fc00f1478b27"},
    {"zfp/r8/d1/zeroruns/4099", "3edff2c8fd7e52c677c268bda9bbb299bb48ecac014da7f89f0103b1043b5d75"},
    {"zfp/r12/d1/entropy/4099", "493b613101852ad7c406ef9888c5261b362b3b7277f821e71abf14ade90dbe99"},
    {"zfp/r12/d1/special/4099", "7c4f45d352beec8ba2a8ebd5b32d8b90b9388f3f49ff57f273be79a28087b50f"},
    {"zfp/r12/d1/denormal/4099", "7a2137c39923d0aa5ffe81ab0ef1db8c5de1b058465727b943c3dabc54722f66"},
    {"zfp/r12/d1/zeroruns/4099", "a0625f673d2234a3638a34ba45bd46e37dbf65a2f220af358989d7bbe5b4cd41"},
    {"zfp/r16/d1/entropy/4099", "8384d6b0cb9fe10e35afdb32404855038ab69e3689f23ed01929469a5e0b1806"},
    {"zfp/r16/d1/special/4099", "dd95b736c3457e5410d722647ab33a26544dfd8862543bc8e88f4947c0d798e8"},
    {"zfp/r16/d1/denormal/4099", "d180e1c67797af014e86a4c6180d5411a0d01d96bcca66e546852ddb481f9fa4"},
    {"zfp/r16/d1/zeroruns/4099", "47e1d4715ec055248f15f87060208ee50ee1ac5c5dc191d11a384a8de04dde5f"},
    {"zfp/r16/d1/quantized/65537", "700bb4c20ec4ceebc4a3d17689888c73579a318eb3ec8ff4546fdb9eb78f4642"},
};

// One digest over the decodes of seeded random byte strings at every rate
// 4..16 (see random_stream_decode_digest).
constexpr const char* kGoldenRandomDecode =
    "4aad38a8acb9d7a6caa26965455379aa4ec14629469862824691f86b29252803";

using MakeStream = std::function<std::vector<std::uint8_t>()>;

std::vector<std::uint8_t> mpc_stream(int dim, gt::PayloadKind kind, std::size_t n,
                                     std::uint64_t seed) {
  const auto in = gt::make_floats(kind, n, seed);
  comp::MpcCodec codec(dim);
  std::vector<std::uint8_t> out(codec.max_compressed_bytes(in.size()));
  out.resize(codec.compress(in, out));
  return out;
}

std::vector<std::uint8_t> mpc64_stream(int dim, gt::PayloadKind kind, std::size_t n,
                                       std::uint64_t seed) {
  const auto in = gt::make_doubles(kind, n, seed);
  comp::MpcCodec64 codec(dim);
  std::vector<std::uint8_t> out(codec.max_compressed_bytes(in.size()));
  out.resize(codec.compress(in, out));
  return out;
}

std::vector<std::uint8_t> zfp_stream(const comp::ZfpCodec& codec, const comp::ZfpField& field,
                                     gt::PayloadKind kind, std::uint64_t seed) {
  const auto in = gt::make_floats(kind, field.values(), seed);
  std::vector<std::uint8_t> out(codec.compressed_bytes(field));
  out.resize(codec.compress(in, field, out));
  return out;
}

std::vector<std::uint8_t> fpc_stream(gt::PayloadKind kind, std::size_t n, std::uint64_t seed) {
  const auto in = gt::make_doubles(kind, n, seed);
  comp::FpcCodec codec;
  std::vector<std::uint8_t> out(codec.max_compressed_bytes(in.size()));
  out.resize(codec.compress(in, out));
  return out;
}

std::vector<std::uint8_t> sz_stream(double eb, gt::PayloadKind kind, std::size_t n,
                                    std::uint64_t seed) {
  const auto in = gt::make_floats(kind, n, seed);
  comp::SzCodec codec(eb);
  std::vector<std::uint8_t> out(codec.max_compressed_bytes(in.size()));
  out.resize(codec.compress(in, out));
  return out;
}

std::vector<std::uint8_t> gfc_stream(gt::PayloadKind kind, std::size_t n, std::uint64_t seed) {
  const auto in = gt::make_doubles(kind, n, seed);
  comp::GfcCodec codec;
  std::vector<std::uint8_t> out(codec.max_compressed_bytes(in.size()));
  out.resize(codec.compress(in, out));
  return out;
}

std::vector<std::uint8_t> huffman_stream(std::size_t n, std::uint64_t seed) {
  const auto floats = gt::make_floats(gt::PayloadKind::QuantizedNoise, n, seed);
  std::vector<std::uint32_t> symbols(floats.size());
  for (std::size_t i = 0; i < floats.size(); ++i) {
    symbols[i] = static_cast<std::uint32_t>(static_cast<std::int64_t>(floats[i])) & 0x3ffu;
  }
  comp::HuffmanEncoder enc(symbols);
  comp::BitWriter w;
  enc.write_table(w);
  for (std::uint32_t s : symbols) enc.encode(w, s);
  return w.take();
}

/// 1D fixed-rate ZFP inputs whose streams *and* decoded floats are pinned:
/// the low rates the register-sized block coder serves, on payloads that
/// reach every plane regime (incompressible bits, NaN/Inf/denormals,
/// denormal-only blocks, all-zero blocks between smooth runs).
struct ZfpPin {
  std::string name;
  int rate;
  gt::PayloadKind kind;
  std::size_t n;
  std::uint64_t seed;

  [[nodiscard]] comp::ZfpCodec codec() const { return comp::ZfpCodec(rate); }
  [[nodiscard]] comp::ZfpField field() const { return comp::ZfpField::d1(n); }
};

std::vector<ZfpPin> zfp_1d_pins() {
  using K = gt::PayloadKind;
  const std::pair<const char*, K> kinds[] = {{"entropy", K::HighEntropy},
                                             {"special", K::SpecialValues},
                                             {"denormal", K::DenormalDrift},
                                             {"zeroruns", K::ZeroRuns}};
  std::vector<ZfpPin> pins;
  std::uint64_t seed = 70;
  for (const int rate : {4, 8, 12, 16}) {
    for (const auto& [tag, kind] : kinds) {
      pins.push_back({"zfp/r" + std::to_string(rate) + "/d1/" + tag + "/4099", rate, kind, 4099,
                      seed++});
    }
  }
  pins.push_back({"zfp/r16/d1/quantized/65537", 16, K::QuantizedNoise, 65537, seed});
  return pins;
}

std::vector<std::pair<std::string, MakeStream>> corpus() {
  using K = gt::PayloadKind;
  std::vector<std::pair<std::string, MakeStream>> c;
  c.emplace_back("mpc/d1/smooth/65536", [] { return mpc_stream(1, K::SmoothField, 65536, 11); });
  c.emplace_back("mpc/d4/interleaved/32768",
                 [] { return mpc_stream(4, K::Interleaved, 32768, 12); });
  c.emplace_back("mpc/d1/special/4099", [] { return mpc_stream(1, K::SpecialValues, 4099, 13); });
  c.emplace_back("mpc/d3/plateaus/4131", [] { return mpc_stream(3, K::Plateaus, 4131, 14); });
  c.emplace_back("mpc64/d1/smooth/32768", [] { return mpc64_stream(1, K::SmoothField, 32768, 15); });
  c.emplace_back("mpc64/d2/special/4097",
                 [] { return mpc64_stream(2, K::SpecialValues, 4097, 16); });
  c.emplace_back("zfp/r4/d1/65536", [] {
    return zfp_stream(comp::ZfpCodec(4), comp::ZfpField::d1(65536), K::SmoothField, 21);
  });
  c.emplace_back("zfp/r8/d1/4099", [] {
    return zfp_stream(comp::ZfpCodec(8), comp::ZfpField::d1(4099), K::VelocityPlane, 22);
  });
  c.emplace_back("zfp/r16/d1/65536", [] {
    return zfp_stream(comp::ZfpCodec(16), comp::ZfpField::d1(65536), K::SmoothField, 23);
  });
  c.emplace_back("zfp/r8/d2/318x202", [] {
    return zfp_stream(comp::ZfpCodec(8), comp::ZfpField::d2(318, 202), K::SmoothField, 24);
  });
  c.emplace_back("zfp/r8/d3/40x31x23", [] {
    return zfp_stream(comp::ZfpCodec(8), comp::ZfpField::d3(40, 31, 23), K::SmoothField, 25);
  });
  c.emplace_back("zfp/prec14/d2/128x128", [] {
    return zfp_stream(comp::ZfpCodec::fixed_precision(14), comp::ZfpField::d2(128, 128),
                      K::SmoothField, 26);
  });
  c.emplace_back("zfp/acc1e-4/d1/65536", [] {
    return zfp_stream(comp::ZfpCodec::fixed_accuracy(1e-4), comp::ZfpField::d1(65536),
                      K::SmoothField, 27);
  });
  for (const ZfpPin& pin : zfp_1d_pins()) {
    c.emplace_back(pin.name, [pin] { return zfp_stream(pin.codec(), pin.field(), pin.kind, pin.seed); });
  }
  c.emplace_back("fpc/smooth/32768", [] { return fpc_stream(K::SmoothField, 32768, 31); });
  c.emplace_back("fpc/special/4099", [] { return fpc_stream(K::SpecialValues, 4099, 32); });
  c.emplace_back("sz/eb1e-3/smooth/65536", [] { return sz_stream(1e-3, K::SmoothField, 65536, 41); });
  c.emplace_back("sz/eb1e-2/qnoise/32768",
                 [] { return sz_stream(1e-2, K::QuantizedNoise, 32768, 42); });
  c.emplace_back("gfc/smooth/32768", [] { return gfc_stream(K::SmoothField, 32768, 51); });
  c.emplace_back("gfc/special/4099", [] { return gfc_stream(K::SpecialValues, 4099, 52); });
  c.emplace_back("huffman/qnoise/65536", [] { return huffman_stream(65536, 61); });
  return c;
}

TEST(GoldenStreams, CompressedBytesAreBitIdentical) {
  const bool update = std::getenv("GCMPI_UPDATE_GOLDEN") != nullptr;
  const auto cases = corpus();
  if (!update) {
    ASSERT_EQ(cases.size(), std::size(kGolden));
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [name, make] = cases[i];
    const std::vector<std::uint8_t> bytes = make();
    ASSERT_FALSE(bytes.empty()) << name;
    const std::string got = gt::sha256_hex(bytes);
    if (update) {
      std::printf("    {\"%s\", \"%s\"},\n", name.c_str(), got.c_str());
      continue;
    }
    ASSERT_STREQ(name.c_str(), kGolden[i].name);
    EXPECT_EQ(got, kGolden[i].sha256)
        << name << ": compressed stream changed (" << bytes.size()
        << " bytes). This is a wire-format break; see the header comment.";
  }
}

std::string float_sha(const std::vector<float>& v) {
  return gt::sha256_hex(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * sizeof(float)));
}

TEST(GoldenStreams, ZfpDecodedFloatsAreBitIdentical) {
  const bool update = std::getenv("GCMPI_UPDATE_GOLDEN") != nullptr;
  const auto pins = zfp_1d_pins();
  if (!update) {
    ASSERT_EQ(pins.size(), std::size(kGoldenDecoded));
  }
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const ZfpPin& pin = pins[i];
    const auto bytes = zfp_stream(pin.codec(), pin.field(), pin.kind, pin.seed);
    std::vector<float> out(pin.n);
    pin.codec().decompress(bytes, pin.field(), out);
    const std::string got = float_sha(out);
    if (update) {
      std::printf("    {\"%s\", \"%s\"},\n", pin.name.c_str(), got.c_str());
      continue;
    }
    ASSERT_STREQ(pin.name.c_str(), kGoldenDecoded[i].name);
    EXPECT_EQ(got, kGoldenDecoded[i].sha256) << pin.name << ": decoded floats changed";
  }
}

/// The decoder is a pure function of its bytes, so pin what arbitrary byte
/// strings decode to, including strings the encoder never writes: uniform,
/// sparse and dense bit densities, each block's nonzero flag set 3 times in
/// 4, at full length and cut 13 bytes short (the tail reads as zeros).
std::string random_stream_decode_digest() {
  sim::Rng rng(0xDEC0DE);
  const auto byte = [&rng] { return static_cast<std::uint8_t>(rng.next_u64()); };
  const comp::ZfpField field = comp::ZfpField::d1(4099);
  std::string digests;
  for (int rate = 4; rate <= 16; ++rate) {
    const comp::ZfpCodec codec(rate);
    const std::size_t full = codec.compressed_bytes(field);
    const std::size_t block_bits = 4 * static_cast<std::size_t>(rate);
    for (int density = 0; density < 3; ++density) {
      std::vector<std::uint8_t> bytes(full);
      for (auto& b : bytes) {
        b = density == 0 ? byte() : density == 1 ? (byte() & byte() & byte()) : (byte() | byte());
      }
      for (std::size_t bit = 0; bit < full * 8; bit += block_bits) {
        if (rng.next_below(4) != 0) bytes[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      for (const std::size_t len : {full, full - 13}) {
        std::vector<float> out(field.values());
        codec.decompress(std::span<const std::uint8_t>(bytes.data(), len), field, out);
        digests += float_sha(out);
      }
    }
  }
  return gt::sha256_hex(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(digests.data()), digests.size()));
}

TEST(GoldenStreams, ZfpDecodesOfRandomBytesAreBitIdentical) {
  const std::string got = random_stream_decode_digest();
  if (std::getenv("GCMPI_UPDATE_GOLDEN") != nullptr) {
    std::printf("random decode digest: %s\n", got.c_str());
    return;
  }
  EXPECT_EQ(got, kGoldenRandomDecode);
}

// The corpus exercises every wire path the hashes pin: decode each stream
// once so a silently-corrupt golden stream cannot hide behind its own hash.
TEST(GoldenStreams, StreamsRoundTrip) {
  for (const auto& [name, make] : corpus()) {
    if (name.rfind("huffman/", 0) == 0) continue;  // raw table+codes, no self-framing
    const std::vector<std::uint8_t> bytes = make();
    SCOPED_TRACE(name);
    if (name.rfind("mpc64/", 0) == 0) {
      std::uint32_t n32 = 0;  // mpc64 shares the header layout but not the magic
      std::memcpy(&n32, bytes.data() + 4, 4);
      const std::size_t n = n32;
      std::vector<double> out(n);
      const int dim = name.find("/d2/") != std::string::npos ? 2 : 1;
      comp::MpcCodec64 codec(dim);
      EXPECT_EQ(codec.decompress(bytes, out), n);
    } else if (name.rfind("mpc/", 0) == 0) {
      const std::size_t n = comp::MpcCodec::encoded_values(bytes);
      std::vector<float> out(n);
      int dim = 1;
      if (name.find("/d4/") != std::string::npos) dim = 4;
      if (name.find("/d3/") != std::string::npos) dim = 3;
      comp::MpcCodec codec(dim);
      EXPECT_EQ(codec.decompress(bytes, out), n);
    }
    // zfp/fpc/sz/gfc round-trips are covered by their dedicated suites and
    // the fuzz harness; here the hash comparison is the contract.
  }
}

}  // namespace
