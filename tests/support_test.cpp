// Tests for the support substrate: strong ids, string interning, the
// deterministic RNG, and the sorted-vector set operations the planner's
// regression machinery is built on.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "support/ids.hpp"
#include "support/interner.hpp"
#include "support/retry.hpp"
#include "support/rng.hpp"
#include "support/sorted_vec.hpp"

namespace sekitei {
namespace {

TEST(Ids, DistinctTagTypesDoNotMix) {
  NodeId n(3);
  LinkId l(3);
  EXPECT_EQ(n.index(), l.index());
  // NodeId and LinkId are different types; this is a compile-time property —
  // the following would not compile:  n == l;
  static_assert(!std::is_same_v<NodeId, LinkId>);
}

TEST(Ids, InvalidByDefault) {
  NodeId n;
  EXPECT_FALSE(n.valid());
  EXPECT_TRUE(NodeId(0).valid());
  EXPECT_LT(NodeId(1), NodeId(2));
}

TEST(Ids, HashableInStdContainers) {
  std::set<PropId> s{PropId(3), PropId(1), PropId(3)};
  EXPECT_EQ(s.size(), 2u);
}

TEST(Interner, StableIdsAndRoundTrip) {
  Interner in;
  const NameId a = in.intern("cpu");
  const NameId b = in.intern("lbw");
  const NameId a2 = in.intern("cpu");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(in.str(a), "cpu");
  EXPECT_EQ(in.str(b), "lbw");
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, FindDoesNotCreate) {
  Interner in;
  EXPECT_FALSE(in.find("nothing").valid());
  in.intern("something");
  EXPECT_TRUE(in.find("something").valid());
  EXPECT_EQ(in.size(), 1u);
}

TEST(Rng, DeterministicPerSeed) {
  SplitMix64 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    (void)c.next_u64();
  }
  SplitMix64 a2(42), c2(43);
  EXPECT_NE(a2.next_u64(), c2.next_u64());
}

TEST(Rng, UniformRangesRespected) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, ChanceIsRoughlyCalibrated) {
  SplitMix64 rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(SortedVec, InsertKeepsSortedUnique) {
  std::vector<PropId> v;
  EXPECT_TRUE(sorted_insert(v, PropId(5)));
  EXPECT_TRUE(sorted_insert(v, PropId(1)));
  EXPECT_TRUE(sorted_insert(v, PropId(9)));
  EXPECT_FALSE(sorted_insert(v, PropId(5)));
  ASSERT_EQ(v.size(), 3u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_TRUE(sorted_contains(v, PropId(9)));
  EXPECT_FALSE(sorted_contains(v, PropId(2)));
}

TEST(SortedVec, SetAlgebra) {
  const std::vector<PropId> a{PropId(1), PropId(3), PropId(5)};
  const std::vector<PropId> b{PropId(3), PropId(4)};
  EXPECT_TRUE(sorted_subset({PropId(1), PropId(5)}, a));
  EXPECT_FALSE(sorted_subset(b, a));
  EXPECT_TRUE(sorted_intersects(a, b));
  EXPECT_FALSE(sorted_intersects(a, {PropId(2), PropId(6)}));
}

TEST(SortedVec, HashDiscriminates) {
  const std::vector<PropId> a{PropId(1), PropId(2)};
  const std::vector<PropId> b{PropId(1), PropId(3)};
  const std::vector<PropId> a2{PropId(1), PropId(2)};
  EXPECT_EQ(hash_sorted(a), hash_sorted(a2));
  EXPECT_NE(hash_sorted(a), hash_sorted(b));  // near-certain for FNV
}

TEST(SortedVec, EmptyEdgeCases) {
  const std::vector<PropId> e;
  const std::vector<PropId> a{PropId(1)};
  EXPECT_TRUE(sorted_subset(e, a));
  EXPECT_TRUE(sorted_subset(e, e));
  EXPECT_FALSE(sorted_subset(a, e));
  EXPECT_FALSE(sorted_intersects(e, a));
}

TEST(Backoff, DelayWithinJitterBounds) {
  Backoff backoff({.base_ms = 5.0, .jitter = 0.5});
  for (std::uint32_t attempt = 0; attempt < 12; ++attempt) {
    const double base = 5.0 * static_cast<double>(1ULL << attempt);
    const double d = backoff.next_delay_ms(attempt);
    EXPECT_GE(d, base) << "attempt " << attempt;
    EXPECT_LT(d, base * 1.5) << "attempt " << attempt;
  }
}

TEST(Backoff, DeterministicPerSeed) {
  Backoff a({.base_ms = 2.0}, 42);
  Backoff b({.base_ms = 2.0}, 42);
  Backoff c({.base_ms = 2.0}, 43);
  bool any_diff = false;
  for (std::uint32_t k = 0; k < 8; ++k) {
    const double da = a.next_delay_ms(k);
    EXPECT_EQ(da, b.next_delay_ms(k));
    any_diff = any_diff || da != c.next_delay_ms(k);
  }
  EXPECT_TRUE(any_diff);  // different seed, different jitter stream
}

TEST(Backoff, DefaultSeedReproducesServeDriverSchedule) {
  // The batch driver drew base * 2^(k) * SplitMix64(0x5ec17e15).uniform(1, 1.5)
  // before the extraction into support/retry.hpp; the refactor must not have
  // changed a single sleep.
  SplitMix64 legacy(0x5ec17e15ULL);
  Backoff backoff({.base_ms = 5.0});
  for (std::uint32_t attempt = 0; attempt < 6; ++attempt) {
    const double expect = 5.0 * static_cast<double>(1ULL << attempt) *
                          legacy.uniform(1.0, 1.5);
    EXPECT_DOUBLE_EQ(backoff.next_delay_ms(attempt), expect);
  }
}

TEST(Backoff, HugeAttemptDoesNotOverflowTheShift) {
  Backoff backoff({.base_ms = 1.0});
  const double d = backoff.next_delay_ms(200);  // clamped to 2^63
  EXPECT_GT(d, 0.0);
  EXPECT_TRUE(std::isfinite(d));
}

}  // namespace
}  // namespace sekitei
