// Scenario: community-based social marketing (paper Sec. I).
//
// A brand wants community promoters, not broadcast influencers: people who
// are demonstrably among the most influential *within* a large community
// interested in the product topic. For each candidate promoter we discover
// their characteristic community with CODL and score candidates by the
// community's reach; the result is a shortlist with the audience each
// promoter can credibly move.
//
//   $ ./marketing_campaign [num_candidates]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "eval/datasets.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "influence/monte_carlo.h"

int main(int argc, char** argv) {
  const size_t num_candidates =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 8;

  std::printf("building social network (retweet-sim)...\n");
  cod::Result<cod::AttributedGraph> data = cod::MakeDataset("retweet-sim");
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  cod::EngineCore engine(data->graph, data->attributes, {});
  cod::Rng rng(3);
  std::printf("indexing influence ranks (HIMOR)...\n");
  engine.BuildHimor(rng);
  cod::QueryWorkspace ws(engine, 3);

  cod::Rng candidate_rng(5);
  const std::vector<cod::Query> candidates =
      cod::GenerateQueries(data->attributes, num_candidates, candidate_rng);
  cod::MonteCarloSimulator simulator(engine.model());

  struct Shortlisted {
    cod::NodeId promoter;
    cod::AttributeId topic;
    size_t audience;
    uint32_t rank;
    double raw_influence;
  };
  std::vector<Shortlisted> shortlist;

  for (const cod::Query& candidate : candidates) {
    const cod::CodResult community = engine.Query(
        {.variant = cod::CodVariant::kCodL, .node = candidate.node,
         .k = engine.options().k, .attrs = {candidate.attribute}},
        ws);
    const double influence =
        simulator.EstimateInfluence(candidate.node, 200, rng);
    if (!community.found) {
      std::printf(
          "candidate %-6u topic %-8s  -> rejected (not top-%u anywhere)"
          "  [raw influence %.1f]\n",
          candidate.node, data->attributes.Name(candidate.attribute).c_str(),
          engine.options().k, influence);
      continue;
    }
    std::printf(
        "candidate %-6u topic %-8s  -> audience %-5zu rank #%u"
        "  [raw influence %.1f]\n",
        candidate.node, data->attributes.Name(candidate.attribute).c_str(),
        community.members.size(), community.rank + 1, influence);
    shortlist.push_back({candidate.node, candidate.attribute,
                         community.members.size(), community.rank,
                         influence});
  }

  if (shortlist.empty()) {
    std::printf("\nno candidate qualifies as a community promoter\n");
    return 0;
  }
  std::sort(shortlist.begin(), shortlist.end(),
            [](const Shortlisted& a, const Shortlisted& b) {
              return a.audience > b.audience;
            });
  const Shortlisted& best = shortlist.front();

  // Reverse search: instead of vetting given candidates, ask the index who
  // the best promoters for a topic are in the first place.
  const cod::AttributeId topic0 = data->attributes.Find("label0");
  if (topic0 != cod::kInvalidAttribute) {
    std::printf("\ntop promoters for topic 'label0' (index-wide search):\n");
    const cod::Result<std::vector<cod::Promoter>> promoters =
        engine.FindTopPromoters(topic0, 3, engine.options().k);
    if (!promoters.ok()) {
      std::fprintf(stderr, "%s\n", promoters.status().ToString().c_str());
      return 1;
    }
    for (const cod::Promoter& promoter : *promoters) {
      std::printf("  node %-6u audience %-5u rank #%u\n", promoter.node,
                  promoter.size, promoter.rank + 1);
    }
  }
  std::printf(
      "\nrecommended promoter: node %u (topic '%s') — credible reach of %zu"
      " community members at influence rank #%u.\n"
      "Note how this differs from picking the largest raw influence: a\n"
      "globally loud account may be top-%u in no community of its topic.\n",
      best.promoter, data->attributes.Name(best.topic).c_str(), best.audience,
      best.rank + 1, engine.options().k);
  return 0;
}
