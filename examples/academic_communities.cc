// Scenario: conference invitations (paper Sec. IV intro).
//
// A coauthorship network where every author belongs to a research community
// and carries its venue attribute (the dblp-sim registry dataset uses the
// paper's own synthetic-attribute scheme for DBLP). To organize a workshop
// on some topic, you want to invite the *characteristic community* of each
// candidate chair: the widest group of researchers on the topic in which the
// chair carries real influence — not just any dense subgraph around them.
//
//   $ ./academic_communities [num_candidates]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "baselines/atc.h"
#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "eval/datasets.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"

int main(int argc, char** argv) {
  const size_t num_candidates = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 5;

  std::printf("building coauthorship network (dblp-sim)...\n");
  cod::Result<cod::AttributedGraph> data = cod::MakeDataset("dblp-sim");
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  cod::EngineCore engine(data->graph, data->attributes, {});
  cod::Rng rng(7);
  std::printf("building HIMOR index (|V|=%zu, |E|=%zu)...\n",
              data->graph.NumNodes(), data->graph.NumEdges());
  engine.BuildHimor(rng);
  cod::QueryWorkspace ws(engine, 7);

  cod::Rng query_rng(11);
  const std::vector<cod::Query> candidates =
      cod::GenerateQueries(data->attributes, num_candidates, query_rng);

  for (const cod::Query& candidate : candidates) {
    const std::string& venue = data->attributes.Name(candidate.attribute);
    std::printf("\ncandidate chair: author %u, topic '%s'\n", candidate.node,
                venue.c_str());

    const cod::CodResult community = engine.Query(
        {.variant = cod::CodVariant::kCodL,
         .node = candidate.node,
         .k = engine.options().k,
         .attrs = {candidate.attribute}},
        ws);
    if (!community.found) {
      std::printf("  no characteristic community: this author is not a top-%u"
                  " influencer at any scale\n",
                  engine.options().k);
      continue;
    }
    const double phi = cod::AttributeDensity(
        data->attributes, candidate.attribute, community.members);
    const double rho = cod::TopologyDensity(data->graph, community.members);
    std::printf(
        "  invite list: %zu researchers (%.0f%% on-topic, density %.3f);\n"
        "  the chair ranks #%u by influence inside the group\n",
        community.members.size(), 100.0 * phi, rho, community.rank + 1);

    // Contrast with what plain attributed community search would return.
    const std::vector<cod::NodeId> atc = cod::AtcSearch(
        data->graph, data->attributes, candidate.node, candidate.attribute);
    std::printf("  (ATC community search would return %zu researchers,"
                " influence-blind)\n",
                atc.size());
  }
  return 0;
}
