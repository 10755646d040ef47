// The benchmark's own tests: seed determinism on small instances, seed
// sensitivity of the inputs, and the percentile and self-time helpers.
// Run with `python3 perfbench/run.py --self-test`.
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  const auto p50 = perfbench::exact_percentile(v, 0.5);
  check(p50.value == 50 && p50.samples == 100 && p50.beyond == 50 &&
            p50.reported,
        "p50 of 1..100 is the 50th order statistic");
  const auto p90 = perfbench::exact_percentile(v, 0.9);
  check(p90.value == 90 && p90.beyond == 10 && p90.reported,
        "p90 of 1..100 has exactly 10 samples beyond and is reported");
  std::vector<double> few(99);
  for (std::size_t i = 0; i < few.size(); ++i) few[i] = static_cast<double>(i);
  const auto p90few = perfbench::exact_percentile(few, 0.9);
  check(!p90few.reported && p90few.beyond == 9,
        "p90 of 99 samples (9 beyond) is not reported");
  std::vector<double> one{7.0};
  check(perfbench::exact_percentile(one, 0.5).value == 7.0,
        "percentile of a single sample");
  check(perfbench::median({3, 1, 2}) == 2 && perfbench::median({4, 1, 3, 2}) == 2.5,
        "median of odd and even sets");
}

perfbench::span make_span(std::uint32_t parent, std::int64_t b,
                          std::int64_t e) {
  perfbench::span s;
  s.parent = parent;
  s.begin_ns = b;
  s.end_ns = e;
  return s;
}

void self_time() {
  using perfbench::kNoSpan;
  // op [0,100): children [10,30) and [20,50) overlap (union 40) and
  // [90,120) is clipped to [90,100) — self = 100 - 50.  The grandchild
  // [12,18) only reduces its parent [10,30): 20 - 6.
  std::vector<perfbench::span> spans = {
      make_span(kNoSpan, 0, 100), make_span(0, 10, 30), make_span(0, 20, 50),
      make_span(0, 90, 120), make_span(1, 12, 18)};
  const auto self = perfbench::self_times(spans);
  check(self[0] == 50, "self time subtracts the union of children, clipped");
  check(self[1] == 14, "self time subtracts grandchildren from their parent only");
  check(self[4] == 6, "a leaf span's self time is its duration");

  perfbench::span_log log;
  const auto a = log.name_id("a");
  const auto b = log.name_id("b");
  {
    perfbench::scoped_span outer(&log, a, 1);
    perfbench::scoped_span inner(&log, b, 1);
    inner.add_count(3);
  }
  { perfbench::scoped_span null_span(nullptr, a, 2); }
  const auto& s = log.spans();
  check(s.size() == 2 && s[1].parent == 0 && s[0].parent == kNoSpan &&
            s[1].op == 1 && s[1].count == 3,
        "scoped spans nest, share the op id, carry counts; a null log records nothing");
  const auto lt = perfbench::layer_times(log);
  check(lt[a].calls == 1 && lt[b].calls == 1 && lt[b].count == 3 &&
            lt[a].self_ns <= lt[a].total_ns,
        "layer totals per name");
}

void determinism() {
  const auto a = perfbench::publish_counts(11, 400, 1, 300, false);
  const auto b = perfbench::publish_counts(11, 400, 1, 300, false);
  check(a.size() == 300 && a == b, "publish: same seed, identical per-op counts");
  const auto t = perfbench::publish_counts(11, 400, 1, 300, true);
  check(a == t, "publish: traced split path counts equal backend::publish");
  const auto s1 = perfbench::publish_counts(11, 400, 4, 200, false);
  const auto s2 = perfbench::publish_counts(11, 400, 4, 200, true);
  check(s1.size() == 200 && s1 == s2,
        "sharded_publish: traced split path counts equal backend::publish");
  const auto c1 = perfbench::churn_counts(5, 800, 6, false);
  const auto c2 = perfbench::churn_counts(5, 800, 6, true);
  check(c1.size() == 6 && c1 == c2, "churn_repair: same seed, identical epoch counts, traced or not");
  bool all_legal = true;
  for (const auto& e : c1) all_legal = all_legal && e.rounds <= 50;
  check(all_legal, "churn_repair: every epoch re-legalized within its budget");

  const auto f1 = perfbench::publish_filters(1, 50);
  const auto f2 = perfbench::publish_filters(2, 50);
  const auto f1again = perfbench::publish_filters(1, 50);
  bool same = true, differ = false;
  for (std::size_t i = 0; i < f1.size(); ++i) {
    same = same && f1[i] == f1again[i];
    differ = differ || !(f1[i] == f2[i]);
  }
  check(same, "inputs: same seed, same filters");
  check(differ, "inputs: different seed, different filters");
  const auto d = perfbench::publish_counts(12, 400, 1, 300, false);
  check(d != a, "publish: different seed, different per-op counts");
}

}  // namespace

int main() {
  percentiles();
  self_time();
  determinism();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
