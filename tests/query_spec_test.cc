#include "src/engine/query_spec.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/exec_control.h"
#include "src/core/shared_prefix.h"
#include "tests/test_util.h"

namespace swope {
namespace {

using test::MakeMiTable;

QuerySpec BaseSpec(QueryKind kind) {
  QuerySpec spec;
  spec.dataset = "ds";
  spec.kind = kind;
  if (IsTopKKind(kind)) {
    spec.k = 2;
  } else {
    spec.eta = 0.5;
  }
  if (NeedsTarget(kind)) spec.target = "t";
  return spec;
}

TEST(QueryKindTest, WireNamesRoundTrip) {
  for (QueryKind kind :
       {QueryKind::kEntropyTopK, QueryKind::kEntropyFilter,
        QueryKind::kMiTopK, QueryKind::kMiFilter, QueryKind::kNmiTopK,
        QueryKind::kNmiFilter}) {
    auto parsed = ParseQueryKind(QueryKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_TRUE(ParseQueryKind("bogus").status().IsInvalidArgument());
  EXPECT_TRUE(ParseQueryKind("").status().IsInvalidArgument());
}

TEST(QueryKindTest, KindPredicates) {
  EXPECT_TRUE(IsTopKKind(QueryKind::kEntropyTopK));
  EXPECT_TRUE(IsTopKKind(QueryKind::kMiTopK));
  EXPECT_TRUE(IsTopKKind(QueryKind::kNmiTopK));
  EXPECT_FALSE(IsTopKKind(QueryKind::kEntropyFilter));
  EXPECT_FALSE(NeedsTarget(QueryKind::kEntropyTopK));
  EXPECT_FALSE(NeedsTarget(QueryKind::kEntropyFilter));
  EXPECT_TRUE(NeedsTarget(QueryKind::kMiFilter));
  EXPECT_TRUE(NeedsTarget(QueryKind::kNmiTopK));
}

TEST(QuerySpecValidateTest, AcceptsWellFormedSpecs) {
  for (QueryKind kind :
       {QueryKind::kEntropyTopK, QueryKind::kEntropyFilter,
        QueryKind::kMiTopK, QueryKind::kMiFilter, QueryKind::kNmiTopK,
        QueryKind::kNmiFilter}) {
    EXPECT_TRUE(BaseSpec(kind).Validate().ok())
        << QueryKindToString(kind);
  }
}

TEST(QuerySpecValidateTest, RejectsMissingDataset) {
  QuerySpec spec = BaseSpec(QueryKind::kEntropyTopK);
  spec.dataset.clear();
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

TEST(QuerySpecValidateTest, RejectsZeroKForTopK) {
  QuerySpec spec = BaseSpec(QueryKind::kEntropyTopK);
  spec.k = 0;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

TEST(QuerySpecValidateTest, RejectsNonPositiveEtaForFilters) {
  QuerySpec spec = BaseSpec(QueryKind::kEntropyFilter);
  spec.eta = 0.0;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  spec.eta = -1.0;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

TEST(QuerySpecValidateTest, RejectsNmiFilterEtaAboveOne) {
  QuerySpec spec = BaseSpec(QueryKind::kNmiFilter);
  spec.eta = 1.5;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  spec.eta = 1.0;  // NMI is normalized to [0, 1]; eta == 1 is allowed.
  EXPECT_TRUE(spec.Validate().ok());
  // Plain MI is unbounded, so the same eta is fine there.
  QuerySpec mi = BaseSpec(QueryKind::kMiFilter);
  mi.eta = 1.5;
  EXPECT_TRUE(mi.Validate().ok());
}

TEST(QuerySpecValidateTest, RejectsMissingTarget) {
  QuerySpec spec = BaseSpec(QueryKind::kMiTopK);
  spec.target.clear();
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

TEST(QuerySpecValidateTest, RejectsEngineManagedFields) {
  QuerySpec spec = BaseSpec(QueryKind::kEntropyTopK);
  spec.options.shared_prefix =
      std::make_shared<SharedPrefix>(std::vector<uint32_t>());
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());

  spec = BaseSpec(QueryKind::kEntropyTopK);
  const ExecControl control;
  spec.options.control = &control;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

TEST(QuerySpecValidateTest, PropagatesBadOptions) {
  QuerySpec spec = BaseSpec(QueryKind::kEntropyTopK);
  spec.options.epsilon = 1.0;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

TEST(ResolveSpecTest, ResolvesTargetByNameAndIndexToSameKey) {
  const Table table = MakeMiTable({0.2, 0.5, 0.8}, 800, 3);
  QuerySpec by_name = BaseSpec(QueryKind::kMiTopK);
  QuerySpec by_index = by_name;
  by_index.target = "0";  // column "t" is index 0

  auto a = ResolveSpec(by_name, table);
  auto b = ResolveSpec(by_index, table);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->target, 0u);
  EXPECT_EQ(a->canonical_key, b->canonical_key);
}

TEST(ResolveSpecTest, ClampedKSharesKeyWithExplicitCap) {
  const Table table = MakeMiTable({0.2, 0.5}, 800, 3);  // h = 3
  QuerySpec capped = BaseSpec(QueryKind::kEntropyTopK);
  capped.k = 3;
  QuerySpec oversized = capped;
  oversized.k = 1000;  // clamps to h = 3

  auto a = ResolveSpec(capped, table);
  auto b = ResolveSpec(oversized, table);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->k, 3u);
  EXPECT_EQ(a->canonical_key, b->canonical_key);

  // MI top-k excludes the target, so the cap is h - 1.
  QuerySpec mi = BaseSpec(QueryKind::kMiTopK);
  mi.k = 99;
  auto c = ResolveSpec(mi, table);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->k, 2u);
}

TEST(ResolveSpecTest, DefaultPfSharesKeyWithExplicitOneOverN) {
  const Table table = MakeMiTable({0.5}, 1000, 3);
  QuerySpec implicit = BaseSpec(QueryKind::kEntropyTopK);
  implicit.options.failure_probability = 0.0;  // paper default: 1/N
  QuerySpec explicit_pf = implicit;
  explicit_pf.options.failure_probability = 1e-3;

  auto a = ResolveSpec(implicit, table);
  auto b = ResolveSpec(explicit_pf, table);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->options.failure_probability, 1e-3);
  EXPECT_EQ(a->canonical_key, b->canonical_key);
}

TEST(ResolveSpecTest, DistinctParametersGetDistinctKeys) {
  const Table table = MakeMiTable({0.2, 0.5}, 800, 3);
  const QuerySpec base = BaseSpec(QueryKind::kEntropyTopK);
  auto base_key = ResolveSpec(base, table);
  ASSERT_TRUE(base_key.ok());

  QuerySpec other = base;
  other.options.epsilon = 0.2;
  auto eps_key = ResolveSpec(other, table);
  ASSERT_TRUE(eps_key.ok());
  EXPECT_NE(base_key->canonical_key, eps_key->canonical_key);

  other = base;
  other.options.seed = base.options.seed + 1;
  auto seed_key = ResolveSpec(other, table);
  ASSERT_TRUE(seed_key.ok());
  EXPECT_NE(base_key->canonical_key, seed_key->canonical_key);

  other = base;
  other.kind = QueryKind::kNmiTopK;
  other.target = "t";
  auto kind_key = ResolveSpec(other, table);
  ASSERT_TRUE(kind_key.ok());
  EXPECT_NE(base_key->canonical_key, kind_key->canonical_key);
}

TEST(ResolveSpecTest, TimeoutDoesNotAffectKey) {
  // The deadline changes whether a query finishes, never its answer, so
  // it must not fragment the cache.
  const Table table = MakeMiTable({0.5}, 800, 3);
  QuerySpec fast = BaseSpec(QueryKind::kEntropyTopK);
  QuerySpec slow = fast;
  slow.timeout_ms = 60000;
  auto a = ResolveSpec(fast, table);
  auto b = ResolveSpec(slow, table);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->canonical_key, b->canonical_key);
}

TEST(ResolveSpecTest, UnknownTargetIsNotFound) {
  const Table table = MakeMiTable({0.5}, 800, 3);
  QuerySpec spec = BaseSpec(QueryKind::kMiTopK);
  spec.target = "no-such-column";
  EXPECT_TRUE(ResolveSpec(spec, table).status().IsNotFound());
  spec.target = "99";  // numeric but out of range
  EXPECT_TRUE(ResolveSpec(spec, table).status().IsNotFound());
}

TEST(ResolveSpecTest, EmptyTableIsRejectedForTopK) {
  QuerySpec spec = BaseSpec(QueryKind::kEntropyTopK);
  EXPECT_TRUE(ResolveSpec(spec, Table()).status().IsInvalidArgument());
}

}  // namespace
}  // namespace swope
