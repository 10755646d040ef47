// Domain scenario: a stock-alert service on the broker API.
//
// Traders subscribe with predicate filters over (price, volume) — the
// named-attribute front end of §2.1 — e.g. "price < 120 AND volume >= 5000".
// A trader may hold several filters (the broker maps each to one DR-tree
// subscriber and de-duplicates deliveries).  Quotes are published as
// events; the overlay delivers each quote to every matching trader with
// no false negatives.
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "engine/runner.h"
#include "pubsub/broker.h"
#include "spatial/schema.h"

int main() {
  using namespace drt;
  using spatial::op;

  // Attribute schema: quotes carry a price and a volume.
  spatial::schema quotes({"price", "volume"});

  engine::overlay_backend_config cfg;
  cfg.dr.workspace = geo::make_rect2(0, 0, 1000, 20000);
  cfg.dr.min_children = 2;
  cfg.dr.max_children = 4;
  pubsub::broker b(cfg);

  struct trader {
    std::string name;
    std::vector<std::vector<spatial::predicate>> filters;
  };
  const std::vector<trader> traders = {
      {"alice (bargains + penny stocks)",
       {{{"price", op::lt, 50}},
        {{"price", op::lt, 5}, {"volume", op::ge, 100}}}},
      {"bob (mid-caps)",
       {{{"price", op::ge, 40}, {"price", op::le, 120},
         {"volume", op::ge, 1000}}}},
      {"carol (volume spikes)", {{{"volume", op::gt, 8000}}}},
      {"erin (blue chips)",
       {{{"price", op::ge, 100}, {"price", op::le, 500}}}},
      {"frank (everything)", {{}}},
      {"grace (quiet market)",
       {{{"volume", op::lt, 500}, {"price", op::le, 200}}}},
  };

  std::cout << "== Traders subscribing (multi-filter clients) ==\n";
  std::map<pubsub::client_id, std::string> names;
  std::vector<pubsub::client_id> ids;
  for (const auto& t : traders) {
    const auto c = b.add_client();
    names[c] = t.name;
    ids.push_back(c);
    for (const auto& f : t.filters) {
      const auto rect = quotes.compile(f);
      b.subscribe(c, rect);
      std::cout << "  " << t.name << "  ->  " << rect.to_string() << "\n";
    }
  }
  engine::scenario_runner(b.backend()).converge(100);
  std::cout << "overlay legal: " << (b.backend().legal() ? "yes" : "no")
            << "\n";

  b.set_delivery_callback([&](pubsub::client_id c, const spatial::event& e) {
    std::cout << "      -> delivered to "
              << names[c].substr(0, names[c].find(' ')) << " (event "
              << e.id << ")\n";
  });

  struct quote {
    const char* ticker;
    double price;
    double volume;
  };
  const std::vector<quote> tape = {
      {"ACME", 42.0, 1200},  {"INIT", 3.2, 450},   {"HUGE", 150.0, 9500},
      {"MIDL", 85.0, 2500},  {"PENY", 1.1, 150},   {"BLUE", 320.0, 700},
      {"SPIK", 65.0, 12000}, {"CALM", 180.0, 300},
  };

  std::cout << "\n== Publishing the quote tape ==\n";
  std::size_t missed_total = 0;
  for (const auto& q : tape) {
    const auto value =
        quotes.make_event({{"price", q.price}, {"volume", q.volume}});
    std::cout << "  " << q.ticker << " (price " << q.price << ", volume "
              << q.volume << "): " << std::flush;
    const auto out = b.publish(ids[static_cast<std::size_t>(q.price) %
                                   ids.size()],
                               value);
    std::cout << out.matching_clients << " matching, " << out.notified.size()
              << " notified, " << out.client_false_negatives << " missed, "
              << out.messages << " msgs\n";
    missed_total += out.client_false_negatives;
  }

  if (missed_total != 0) {
    std::cerr << "BUG: a matching trader missed a quote!\n";
    return 1;
  }
  std::cout << "\nEvery matching trader received every quote "
               "(zero false negatives).\n";
  return 0;
}
