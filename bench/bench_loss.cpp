// Experiment E17 (robustness beyond the paper's model): dissemination
// accuracy under lossy links.
//
// The paper's no-false-negative guarantee is structural — it assumes
// event messages are delivered.  This bench quantifies what happens when
// they are not: events dropped mid-dissemination orphan whole subtrees
// for that event.  Expected shape: FN rate grows roughly with the loss
// rate times the path length; the overlay structure itself stays legal
// (repair traffic is also lossy but retries every period).  This bounds
// the reliability a transport layer must provide to preserve the paper's
// guarantee end-to-end.
//
// Driven through the scenario engine: the scenario declares a
// net::model_config with default delays and the swept loss, and
// engine::configured_for installs it; the row schema is unchanged so the
// bench history stays comparable.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"
#include "util/table.h"

namespace {

using drt::bench::results;
using drt::engine::metrics_recorder;
using drt::util::table;

void BM_Loss(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;

  drt::net::model_config net;  // default delays, swept loss
  net.loss = loss;
  const auto sc = drt::engine::scenario::make("loss")
                      .net(net)
                      .populate(100)
                      .converge(300)
                      .publish_sweep(300,
                                     drt::workload::event_family::matching)
                      .converge(300)
                      .build();

  drt::engine::overlay_backend_config bc;
  bc.net.seed = 151;

  metrics_recorder rec;
  for (auto _ : state) {
    drt::engine::drtree_backend be(drt::engine::configured_for(sc, bc));
    drt::engine::scenario_runner runner(be);
    rec = runner.run(sc);
  }

  const auto* sweep = rec.last("publish_sweep");
  const auto* heal = rec.last("converge_until_legal");
  state.counters["fn_rate"] = sweep->fn_rate();
  state.counters["fp_rate"] = sweep->fp_rate();

  results::instance().set_headers({"loss_%", "fn_rate", "fp_rate",
                                   "msgs/event", "overlay_legal_after"});
  results::instance().add_row(
      {table::cell(static_cast<std::size_t>(loss * 100)),
       table::cell(sweep->fn_rate(), 4), table::cell(sweep->fp_rate(), 4),
       table::cell(sweep->messages_per_event(), 1),
       heal->legal == 1 ? "yes" : "NO"});
}

}  // namespace

BENCHMARK(BM_Loss)
    ->Arg(0)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

DRT_BENCH_MAIN(
    "E17: dissemination under message loss (robustness bound)",
    "Expect FN = 0 at zero loss (the paper's guarantee), FN growing "
    "~linearly with the loss rate (each event path is a chain of lossy "
    "hops), while the overlay itself stays repairable at every rate.")
