// Structure dump: builds a DR-tree from a synthetic workload and prints
// the logical level structure (Fig. 4) and communication-graph statistics
// (Fig. 5), plus the legality report.
//
// Usage: structure_dump [N] [family] [m] [M] [dot-prefix]
//   N       peer count                      (default 64)
//   family  uniform|clustered|zipf|nested|mixed  (default uniform)
//   m, M    degree bounds                   (default 2, 6)
//   dot-prefix  when given, writes <prefix>_instances.dot and
//               <prefix>_peers.dot (Graphviz renderings of Figs. 4/5)
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>

#include "analysis/models.h"
#include "drtree/checker.h"
#include "drtree/dot.h"
#include "engine/backends.h"
#include "engine/runner.h"

namespace {

drt::workload::subscription_family parse_family(const char* text) {
  using drt::workload::subscription_family;
  for (const auto f : drt::workload::all_subscription_families()) {
    if (std::strcmp(text, to_string(f)) == 0) return f;
  }
  std::cerr << "unknown family '" << text << "', using uniform\n";
  return subscription_family::uniform;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace drt;

  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  const auto family = argc > 2
                          ? parse_family(argv[2])
                          : workload::subscription_family::uniform;
  const std::size_t m = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 2;
  const std::size_t big_m = argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 6;

  engine::overlay_backend_config bc;
  bc.dr.min_children = m;
  bc.dr.max_children = big_m;
  engine::drtree_backend be(bc);
  engine::runner_config rc;
  rc.workload.family = family;
  engine::scenario_runner runner(be, rc);
  runner.populate(n);
  const int rounds = runner.converge(80);

  const auto& ov = be.overlay();
  const auto report = overlay::checker(ov).check();
  std::cout << "DR-tree over " << n << " '" << to_string(family)
            << "' subscriptions (m=" << m << ", M=" << big_m << ")\n";
  std::cout << "converged after " << rounds << " stabilization rounds; legal: "
            << (report.legal() ? "yes" : "no") << "\n\n";

  // Logical levels (Fig. 4): which peers are active per height.
  const auto root = ov.current_root();
  std::map<std::size_t, std::vector<spatial::peer_id>> by_height;
  std::size_t tree_height = 0;
  for (const auto p : ov.live_peers()) {
    const auto& peer = ov.peer(p);
    tree_height = std::max(tree_height, peer.top());
    for (const auto h : peer.instance_heights()) by_height[h].push_back(p);
  }
  std::cout << "logical levels (paper level l = " << tree_height
            << " - height):\n";
  for (std::size_t h = tree_height + 1; h-- > 0;) {
    const auto& peers = by_height[h];
    std::cout << "  height " << h << " (" << peers.size() << " instances)";
    if (peers.size() <= 16) {
      std::cout << ":";
      for (const auto p : peers) {
        std::cout << ' ' << p << (p == root && h == tree_height ? "*" : "");
      }
    }
    std::cout << "\n";
  }

  // Communication graph (Fig. 5): neighbor = parent or child somewhere.
  std::size_t edges = 0;
  std::size_t max_degree = 0;
  for (const auto p : ov.live_peers()) {
    const auto& peer = ov.peer(p);
    std::size_t degree = 0;
    for (const auto h : peer.instance_heights()) {
      const auto& ins = peer.inst(h);
      for (const auto c : ins.children) {
        if (c != p) ++degree;
      }
      if (h == peer.top() && ins.parent != p) ++degree;
    }
    edges += degree;
    max_degree = std::max(max_degree, degree);
  }
  std::cout << "\ncommunication graph (Fig. 5): " << edges / 2
            << " undirected edges, max peer degree " << max_degree << "\n";

  std::cout << "\nshape vs Lemma 3.1:\n";
  std::cout << "  height " << report.height << "  (log_m N = "
            << analysis::predicted_height(n, m) << ")\n";
  std::cout << "  max per-peer links " << report.max_peer_links
            << "  (O(M log^2 N / log m) = "
            << analysis::predicted_memory(n, m, big_m) << ")\n";
  std::cout << "  interior degree avg " << report.avg_interior_children
            << ", max " << report.max_interior_children << " (M=" << big_m
            << ")\n";

  if (argc > 5) {
    const std::string prefix = argv[5];
    std::ofstream(prefix + "_instances.dot") << overlay::to_dot_instances(ov);
    std::ofstream(prefix + "_peers.dot") << overlay::to_dot_peers(ov);
    std::cout << "\nwrote " << prefix << "_instances.dot and " << prefix
              << "_peers.dot\n";
  }

  if (!report.legal()) {
    std::cout << "\nviolations:\n";
    for (const auto& v : report.violations) std::cout << "  " << v << "\n";
    return 1;
  }
  return 0;
}
