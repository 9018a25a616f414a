// PartitionMap unit tests: ownership is total and consistent with the
// slices, routing preserves the report multiset, the merge is the exact
// inverse of the split, and the handshake codec rejects hostile bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "ldp/wire.h"
#include "service/partition.h"
#include "service/transport.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace shuffledp {
namespace service {
namespace {

TEST(PartitionMap, ByValueRequiresValueEqualityOracle) {
  ldp::Grr grr(2.0, 64);
  ldp::LocalHash solh(2.0, 64, 16, "SOLH");
  EXPECT_TRUE(PartitionMap::Create(grr, PartitionMode::kByValue, 4).ok());
  EXPECT_FALSE(PartitionMap::Create(solh, PartitionMode::kByValue, 4).ok());
  EXPECT_TRUE(PartitionMap::Create(solh, PartitionMode::kByClient, 4).ok());
  EXPECT_FALSE(PartitionMap::Create(grr, PartitionMode::kByValue, 0).ok());
  EXPECT_FALSE(PartitionMap::Create(grr, PartitionMode::kByValue, 65).ok());
}

TEST(PartitionMap, SlicesTileTheDomainAndOwnershipMatches) {
  ldp::Grr grr(2.0, 37);  // deliberately not divisible by P
  for (uint32_t partitions : {1u, 3u, 5u, 37u}) {
    auto map = PartitionMap::Create(grr, PartitionMode::kByValue, partitions);
    ASSERT_TRUE(map.ok());
    uint64_t covered = 0;
    for (uint32_t p = 0; p < partitions; ++p) {
      PartitionSlice slice = map->SliceOf(p);
      EXPECT_EQ(slice.index, p);
      EXPECT_EQ(slice.count, partitions);
      EXPECT_EQ(slice.lo, covered);
      covered = slice.hi;
      for (uint64_t v = slice.lo; v < slice.hi; ++v) {
        EXPECT_EQ(map->OwnerOfOrdinal(v), p) << "v=" << v;
      }
    }
    EXPECT_EQ(covered, 37u);  // tiles exactly, no gaps or overlap
    // Padding-region ordinals (>= d) also have exactly one owner.
    for (uint64_t ordinal = 37; ordinal < 64; ++ordinal) {
      EXPECT_LT(map->OwnerOfOrdinal(ordinal), partitions);
    }
  }
}

TEST(PartitionMap, RoutePreservesTheMultisetAndMergeInverts) {
  ldp::Grr grr(2.0, 100);
  Rng rng(7);
  std::vector<uint64_t> ordinals;
  for (int i = 0; i < 5000; ++i) {
    ordinals.push_back(rng.UniformU64(128));  // incl. padding region
  }

  for (PartitionMode mode :
       {PartitionMode::kByValue, PartitionMode::kByClient}) {
    auto map = PartitionMap::Create(grr, mode, 4);
    ASSERT_TRUE(map.ok());
    std::map<uint64_t, uint64_t> original;
    for (uint64_t o : ordinals) ++original[o];

    std::map<uint64_t, uint64_t> routed;
    auto groups = map->Route(/*batch_index=*/3, ordinals);
    ASSERT_EQ(groups.size(), 4u);
    for (uint32_t p = 0; p < 4; ++p) {
      for (uint64_t o : groups[p]) {
        ++routed[o];
        if (mode == PartitionMode::kByValue) {
          EXPECT_EQ(map->OwnerOfOrdinal(o), p);
        }
      }
    }
    EXPECT_EQ(routed, original);
    if (mode == PartitionMode::kByClient) {
      // Whole batch to batch_index % P, everything else empty.
      EXPECT_EQ(groups[3].size(), ordinals.size());
    }
  }
}

// The owner formula as first written: invert floor(d·p/P) with one
// division, correct by at most one boundary step; padding (and every
// kByClient ordinal) spreads by residue. The lookup, Route's scatter and
// the endpoint's admission check must all agree with it.
uint32_t ReferenceOwner(PartitionMode mode, uint64_t d, uint32_t partitions,
                        uint64_t ordinal) {
  if (partitions <= 1) return 0;
  if (mode == PartitionMode::kByValue && ordinal < d) {
    uint64_t p = ordinal * partitions / d;
    while (ordinal < d * p / partitions) --p;
    while (ordinal >= d * (p + 1) / partitions) ++p;
    return static_cast<uint32_t>(p);
  }
  return static_cast<uint32_t>(ordinal % partitions);
}

// A by-value map over d values with `bits`-bit ordinals, built from its
// handshake bytes so d = 1 needs no oracle.
PartitionMap ByValueMap(uint64_t d, unsigned bits, uint32_t partitions) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(PartitionMode::kByValue));
  w.PutVarint(partitions);
  w.PutVarint(d);
  w.PutU8(static_cast<uint8_t>(bits));
  auto map = ParsePartitionMap(w.Release());
  EXPECT_TRUE(map.ok()) << map.status().ToString();
  return map.ok() ? *map : PartitionMap();
}

void ExpectOwnersMatchReference(const PartitionMap& map,
                                const std::vector<uint64_t>& ordinals) {
  const uint64_t d = map.domain_size();
  const uint32_t partitions = map.partitions();
  for (uint64_t ordinal : ordinals) {
    const uint32_t owner =
        ReferenceOwner(map.mode(), d, partitions, ordinal);
    ASSERT_EQ(map.OwnerOfOrdinal(ordinal), owner)
        << map.ToString() << " ordinal " << ordinal;
    ASSERT_TRUE(map.AdmitOrdinals(owner, {ordinal}).ok())
        << map.ToString() << " ordinal " << ordinal;
    if (partitions > 1 && map.mode() == PartitionMode::kByValue) {
      const Status refused =
          map.AdmitOrdinals((owner + 1) % partitions, {ordinal});
      ASSERT_EQ(refused.code(), StatusCode::kProtocolViolation)
          << map.ToString() << " ordinal " << ordinal;
    }
  }
  // Route scatters in order, every group at its exact size, each group
  // admitted by its own endpoint.
  const std::vector<std::vector<uint64_t>> groups = map.Route(0, ordinals);
  ASSERT_EQ(groups.size(), partitions);
  std::vector<std::vector<uint64_t>> expected(partitions);
  for (uint64_t ordinal : ordinals) {
    expected[ReferenceOwner(map.mode(), d, partitions, ordinal)].push_back(
        ordinal);
  }
  for (uint32_t p = 0; p < partitions; ++p) {
    ASSERT_EQ(groups[p], expected[p]) << map.ToString() << " p=" << p;
    EXPECT_EQ(groups[p].capacity(), groups[p].size())
        << map.ToString() << " p=" << p;
    EXPECT_TRUE(map.AdmitOrdinals(p, groups[p]).ok()) << map.ToString();
  }
}

TEST(PartitionMap, OwnerLookupMatchesTheDivisionReference) {
  std::vector<uint64_t> domains;
  for (uint64_t d = 1; d <= 64; ++d) domains.push_back(d);
  for (uint64_t d : {100, 915, 1000, 1024, 1025}) domains.push_back(d);
  for (uint64_t d : domains) {
    unsigned bits = 1;
    while ((uint64_t{1} << bits) < d) ++bits;
    std::vector<uint64_t> every;  // the whole ordinal space, padding too
    for (uint64_t o = 0; o < (uint64_t{1} << bits); ++o) every.push_back(o);
    std::vector<uint32_t> counts;
    for (uint32_t p = 1; p <= std::min<uint64_t>(d, 17); ++p) {
      counts.push_back(p);
    }
    counts.push_back(static_cast<uint32_t>(d));
    for (uint32_t partitions : counts) {
      ExpectOwnersMatchReference(ByValueMap(d, bits, partitions), every);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PartitionMap, OwnerLookupMatchesTheReferenceAtSliceEdges) {
  constexpr uint64_t kDomain = 100000;  // 17-bit ordinals
  for (uint32_t partitions = 1; partitions <= 17; ++partitions) {
    const PartitionMap map = ByValueMap(kDomain, 17, partitions);
    std::vector<uint64_t> edges = {0, 1, kDomain - 1, kDomain, kDomain + 1,
                                   (uint64_t{1} << 17) - 1};
    for (uint32_t p = 1; p < partitions; ++p) {
      const uint64_t lo = map.SliceOf(p).lo;
      edges.insert(edges.end(), {lo - 1, lo, lo + 1});
    }
    ExpectOwnersMatchReference(map, edges);
  }
  // The u16 wire field caps P below d here; at P = 65535 every slice is
  // one or two values wide, so every ordinal sits at a slice edge.
  std::vector<uint64_t> every;
  for (uint64_t o = 0; o < (uint64_t{1} << 17); ++o) every.push_back(o);
  ExpectOwnersMatchReference(ByValueMap(kDomain, 17, 0xFFFF), every);
}

TEST(PartitionMap, ByClientOwnershipIsResidueAndAdmitsEverything) {
  ldp::LocalHash solh(2.0, 64, 16, "SOLH");
  auto map = PartitionMap::Create(solh, PartitionMode::kByClient, 5);
  ASSERT_TRUE(map.ok());
  std::vector<uint64_t> ordinals;
  for (uint64_t o = 0; o < 300; ++o) ordinals.push_back(o * 0x9E3779B9ULL);
  for (uint64_t o : ordinals) {
    EXPECT_EQ(map->OwnerOfOrdinal(o), o % 5);
  }
  for (uint32_t p = 0; p < 5; ++p) {
    EXPECT_TRUE(map->AdmitOrdinals(p, ordinals).ok());
  }
}

// The map a Create builds and the one its handshake bytes parse to look
// ordinals up alike.
TEST(PartitionMap, ParsedMapLooksUpLikeTheCreatedOne) {
  ldp::Grr grr(2.0, 1000);
  auto created = PartitionMap::Create(grr, PartitionMode::kByValue, 7);
  ASSERT_TRUE(created.ok());
  auto parsed = ParsePartitionMap(SerializePartitionMap(*created));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(*parsed, *created);
  for (uint64_t o = 0; o < 1024; ++o) {
    ASSERT_EQ(parsed->OwnerOfOrdinal(o), created->OwnerOfOrdinal(o));
  }
}

// A map of `partitions` over the oracle's domain and ordinal width,
// built from its handshake bytes so every (mode, P) pair exists — even a
// by-value layout over a hash oracle or with more partitions than values,
// which Create refuses but the frame encoder must still route like Route.
PartitionMap LayoutMap(PartitionMode mode,
                       const ldp::ScalarFrequencyOracle& oracle,
                       uint32_t partitions) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(mode));
  w.PutVarint(partitions);
  w.PutVarint(oracle.domain_size());
  w.PutU8(static_cast<uint8_t>(oracle.PackedBits()));
  auto map = ParsePartitionMap(w.Release());
  EXPECT_TRUE(map.ok()) << map.status().ToString();
  return map.ok() ? *map : PartitionMap();
}

// EncodeRoutedBatch against the long way round: Route into groups, then
// EncodeFrame over varint(index) ‖ SerializeOrdinals(group). Every frame
// must match byte for byte and be accepted by its own endpoint's decoder,
// ordinal parser and admission check. The oracles are the wire codec
// pins' (ordinal widths 1, 2, 5 and 8).
TEST(PartitionMap, RoutedFramesMatchRouteSerializeEncode) {
  ldp::Grr grr11(1.0, 11);
  ldp::Grr grr1000(1.0, 1000);
  ldp::LocalHash solh(1.0, 100, 64, "SOLH");
  ldp::LocalHash wide(1.0, 100, uint64_t{1} << 32, "OLH");
  const ldp::ScalarFrequencyOracle* oracles[] = {&grr11, &grr1000, &solh,
                                                 &wide};
  const size_t widths[] = {1, 2, 5, 8};
  constexpr uint64_t kRound = 0x0102030405ULL;
  for (size_t k = 0; k < 4; ++k) {
    const ldp::ScalarFrequencyOracle& oracle = *oracles[k];
    ASSERT_EQ(ldp::WireReportBytes(oracle), widths[k]);
    const unsigned bits = oracle.PackedBits();
    const uint64_t max_ordinal =
        bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    Rng rng(40 + k);
    std::vector<uint64_t> mixed;
    for (int i = 0; i < 700; ++i) {
      mixed.push_back(bits >= 64 ? rng.NextU64()
                                 : rng.UniformU64(max_ordinal + 1));
    }
    // The domain's edges, the first padding ordinals and the maximum.
    const uint64_t d = oracle.domain_size();
    const std::vector<std::vector<uint64_t>> batches = {
        {},
        {0, d - 1, d, d + 1, max_ordinal, max_ordinal - 1, 0, max_ordinal},
        mixed};
    for (PartitionMode mode :
         {PartitionMode::kByValue, PartitionMode::kByClient}) {
      for (uint32_t partitions : {1u, 2u, 3u, 7u, 64u}) {
        const PartitionMap map = LayoutMap(mode, oracle, partitions);
        for (uint64_t index : {uint64_t{0}, uint64_t{5}, uint64_t{300},
                               uint64_t{1} << 40}) {
          for (const std::vector<uint64_t>& batch : batches) {
            const std::string where = map.ToString() + " width " +
                                      std::to_string(widths[k]) +
                                      " batch " + std::to_string(index) +
                                      " of " + std::to_string(batch.size());
            auto frames = EncodeRoutedBatch(oracle, map, kRound, index, batch);
            ASSERT_TRUE(frames.ok()) << where << ": "
                                     << frames.status().ToString();
            ASSERT_EQ(frames->size(), partitions) << where;
            const auto groups = map.Route(index, batch);
            for (uint32_t p = 0; p < partitions; ++p) {
              ByteWriter payload;
              payload.PutVarint(index);
              payload.PutBytes(ldp::SerializeOrdinals(oracle, groups[p]));
              Frame reference;
              reference.type = FrameType::kBatchIndexed;
              reference.partition = static_cast<uint16_t>(p);
              reference.round_id = kRound;
              reference.payload = payload.Release();
              ASSERT_EQ((*frames)[p], EncodeFrame(reference))
                  << where << " p=" << p;

              FrameDecoder decoder;
              ASSERT_TRUE(decoder.Feed((*frames)[p]).ok()) << where;
              Frame decoded;
              ASSERT_TRUE(decoder.Next(&decoded)) << where;
              EXPECT_EQ(decoded.type, FrameType::kBatchIndexed);
              EXPECT_EQ(decoded.partition, p);
              EXPECT_EQ(decoded.round_id, kRound);
              ByteReader r(decoded.payload);
              auto decoded_index = r.GetVarint();
              ASSERT_TRUE(decoded_index.ok()) << where;
              EXPECT_EQ(*decoded_index, index) << where;
              const size_t prefix = decoded.payload.size() - r.Remaining();
              auto ordinals = ldp::ParseOrdinals(
                  oracle, decoded.payload.data() + prefix, r.Remaining());
              ASSERT_TRUE(ordinals.ok())
                  << where << ": " << ordinals.status().ToString();
              EXPECT_EQ(*ordinals, groups[p]) << where << " p=" << p;
              EXPECT_TRUE(map.AdmitOrdinals(p, *ordinals).ok())
                  << where << " p=" << p;
            }
          }
        }
      }
    }
  }
}

TEST(PartitionMap, MergeSupportsByValueConcatenatesByClientSums) {
  ldp::Grr grr(2.0, 10);
  {
    auto map = PartitionMap::Create(grr, PartitionMode::kByValue, 3);
    ASSERT_TRUE(map.ok());
    // Slices of d=10 over 3: [0,3) [3,6) [6,10).
    auto merged = map->MergeSupports({{1, 2, 3}, {4, 5, 6}, {7, 8, 9, 10}});
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(*merged,
              (std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
    // Wrong slice length fails loudly.
    EXPECT_FALSE(
        map->MergeSupports({{1, 2}, {4, 5, 6}, {7, 8, 9, 10}}).ok());
    EXPECT_FALSE(map->MergeSupports({{1, 2, 3}, {4, 5, 6}}).ok());
  }
  {
    auto map = PartitionMap::Create(grr, PartitionMode::kByClient, 2);
    ASSERT_TRUE(map.ok());
    std::vector<uint64_t> a = {1, 0, 2, 0, 3, 0, 4, 0, 5, 0};
    std::vector<uint64_t> b = {0, 9, 0, 8, 0, 7, 0, 6, 0, 5};
    auto merged = map->MergeSupports({a, b});
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(*merged,
              (std::vector<uint64_t>{1, 9, 2, 8, 3, 7, 4, 6, 5, 5}));
    EXPECT_FALSE(map->MergeSupports({{1, 2}, b}).ok());
  }
}

TEST(PartitionMap, HandshakeCodecRoundTripsAndRejectsHostileBytes) {
  ldp::Grr grr(2.0, 300);
  auto map = PartitionMap::Create(grr, PartitionMode::kByValue, 7);
  ASSERT_TRUE(map.ok());
  Bytes wire = SerializePartitionMap(*map);
  auto parsed = ParsePartitionMap(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(*parsed == *map);
  EXPECT_EQ(parsed->partitions(), 7u);
  EXPECT_EQ(parsed->domain_size(), 300u);
  EXPECT_EQ(parsed->packed_bits(), grr.PackedBits());

  for (size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + len);
    EXPECT_FALSE(ParsePartitionMap(truncated).ok()) << "len=" << len;
  }
  {
    Bytes bad = wire;
    bad[0] = 9;  // unknown mode
    EXPECT_FALSE(ParsePartitionMap(bad).ok());
  }
  {
    ByteWriter w;
    w.PutU8(0);
    w.PutVarint(0);  // zero partitions
    w.PutVarint(300);
    w.PutU8(9);
    EXPECT_FALSE(ParsePartitionMap(w.data()).ok());
  }
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
