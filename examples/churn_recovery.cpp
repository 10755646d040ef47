// Self-stabilization demo on the engine API: the canned
// massacre_then_heal scenario — build a healthy DR-tree, crash a third of
// the peers (root included), corrupt the memory of half the survivors,
// and watch the CHECK_* modules repair the overlay round by round until
// the configuration is legitimate again (Definition 3.2 / Lemma 3.6).
//
// The whole disaster is one declarative timeline executed by
// scenario_runner; the round-by-round table hooks the runner's converge
// observer.
#include <iostream>

#include "drtree/checker.h"
#include "engine/backends.h"
#include "engine/runner.h"
#include "engine/scenario.h"

int main() {
  using namespace drt;

  engine::overlay_backend_config bc;
  bc.net.seed = 2027;
  engine::drtree_backend backend(bc);

  engine::runner_config rc;
  rc.on_converge_round = [&backend](int round) {
    const auto report = overlay::checker(backend.overlay()).check();
    std::cout.width(5);
    std::cout << round << "  ";
    std::cout.width(10);
    std::cout << report.violations.size() << "  ";
    std::cout.width(5);
    std::cout << report.roots << "  ";
    std::cout.width(9);
    std::cout << report.reachable << "/" << report.live_peers << "\n";
  };
  engine::scenario_runner runner(backend, rc);

  const auto sc = engine::canned::massacre_then_heal(
      /*n=*/60, /*crash_fraction=*/1.0 / 3, /*corruption=*/0.5,
      /*seed=*/4242);
  std::cout << "running scenario '" << sc.name << "' ("
            << sc.timeline.size() << " phases) on backend '"
            << backend.name() << "'\n\n";
  std::cout << "round  violations  roots  reachable/live\n";
  std::cout << "-----  ----------  -----  --------------\n";

  const auto rec = runner.run(sc);

  std::cout << "\n";
  rec.to_table().print(std::cout);

  const auto* heal = rec.last("converge_until_legal");
  const auto* sweep = rec.last("publish_sweep");
  if (heal == nullptr || heal->rounds < 0) {
    std::cout << "\ndid not converge within the round budget\n";
    return 1;
  }
  std::cout << "\nconverged to a legitimate configuration after "
            << heal->rounds << " stabilization rounds\n";
  std::cout << "post-recovery sweep: " << sweep->events << " events, "
            << sweep->false_negatives << " false negatives\n";
  return sweep->false_negatives == 0 ? 0 : 1;
}
