// COD over a heterogeneous information network (the paper's future-work
// direction, Sec. VI), via meta-path projection:
//
//   1. synthesize a bibliographic HIN (authors - papers - venues);
//   2. project the Author-Paper-Author meta-path into a weighted
//      co-authorship graph (edge weight = number of co-authored papers);
//   3. attach each author's publication venues as attributes;
//   4. ask for an author's characteristic community on a venue topic with
//      the ordinary EngineCore — the projection made the problem homogeneous.
//
//   $ ./hin_bibliographic [num_authors]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "graph/hin.h"
#include "eval/query_gen.h"

namespace {

struct BiblioHin {
  cod::HinGraph hin;
  std::vector<cod::NodeId> authors;
  std::vector<cod::NodeId> venues;
  std::vector<cod::NodeId> paper_venue;  // per paper (by index), its venue
};

// Authors are grouped into research fields; each field favors one venue.
// Papers draw 2-3 authors from one field (occasionally crossing fields).
BiblioHin MakeBiblioHin(size_t num_authors, cod::Rng& rng) {
  BiblioHin out;
  cod::HinGraphBuilder builder;
  const cod::NodeTypeId author = builder.InternType("author");
  const cod::NodeTypeId paper = builder.InternType("paper");
  const cod::NodeTypeId venue = builder.InternType("venue");

  const size_t num_fields = 8;
  const size_t num_venues = 8;
  for (size_t a = 0; a < num_authors; ++a) {
    out.authors.push_back(builder.AddNode(author));
  }
  for (size_t v = 0; v < num_venues; ++v) {
    out.venues.push_back(builder.AddNode(venue));
  }
  const size_t num_papers = num_authors * 2;
  for (size_t p = 0; p < num_papers; ++p) {
    const cod::NodeId paper_node = builder.AddNode(paper);
    const size_t field = rng.UniformInt(num_fields);
    const size_t field_begin = field * num_authors / num_fields;
    const size_t field_end = (field + 1) * num_authors / num_fields;
    const size_t team = 2 + rng.UniformInt(2);
    for (size_t i = 0; i < team; ++i) {
      const bool cross_field = rng.Bernoulli(0.15);
      const size_t lo = cross_field ? 0 : field_begin;
      const size_t hi = cross_field ? num_authors : field_end;
      builder.AddEdge(out.authors[lo + rng.UniformInt(hi - lo)], paper_node);
    }
    // Venue follows the field most of the time.
    const size_t venue_id =
        rng.Bernoulli(0.8) ? field % num_venues : rng.UniformInt(num_venues);
    builder.AddEdge(paper_node, out.venues[venue_id]);
    out.paper_venue.push_back(out.venues[venue_id]);
  }
  out.hin = std::move(builder).Build();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t num_authors =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3000;
  cod::Rng rng(17);
  std::printf("building bibliographic HIN (%zu authors)...\n", num_authors);
  BiblioHin biblio = MakeBiblioHin(num_authors, rng);
  std::printf("  HIN: %zu typed nodes, %zu edges\n", biblio.hin.NumNodes(),
              biblio.hin.graph().NumEdges());

  // Meta-path projection: Author-Paper-Author.
  const cod::NodeTypeId apa[] = {biblio.hin.FindType("author"),
                                 biblio.hin.FindType("paper"),
                                 biblio.hin.FindType("author")};
  cod::Result<cod::MetaPathProjection> projection =
      cod::ProjectMetaPath(biblio.hin, apa);
  if (!projection.ok()) {
    std::fprintf(stderr, "%s\n", projection.status().ToString().c_str());
    return 1;
  }
  std::printf("  APA projection: %zu authors, %zu co-authorship edges\n",
              projection->graph.NumNodes(), projection->graph.NumEdges());

  // Attributes on projected nodes: the venues each author published at.
  cod::AttributeTableBuilder attr_builder;
  {
    // Walk author-paper edges in the HIN; paper -> venue is known.
    const cod::Graph& hg = biblio.hin.graph();
    const cod::NodeTypeId paper_type = biblio.hin.FindType("paper");
    std::vector<cod::NodeId> local_of(hg.NumNodes(), cod::kInvalidNode);
    for (size_t i = 0; i < projection->to_hin.size(); ++i) {
      local_of[projection->to_hin[i]] = static_cast<cod::NodeId>(i);
    }
    const cod::NodeId first_paper = biblio.venues.back() + 1;
    for (cod::NodeId author_hin : projection->to_hin) {
      for (const cod::AdjEntry& a : hg.Neighbors(author_hin)) {
        if (biblio.hin.TypeOf(a.to) != paper_type) continue;
        const cod::NodeId venue_node =
            biblio.paper_venue[a.to - first_paper];
        attr_builder.Add(local_of[author_hin],
                         "venue" + std::to_string(venue_node -
                                                  biblio.venues.front()));
      }
    }
  }
  const cod::AttributeTable attrs =
      std::move(attr_builder).Build(projection->graph.NumNodes());

  // COD on the projected graph.
  cod::EngineCore engine(projection->graph, attrs, {});
  engine.BuildHimor(/*seed=*/23);
  cod::QueryWorkspace ws(engine, 0);
  ws.rng() = rng;
  cod::Rng query_rng(29);
  const std::vector<cod::Query> queries =
      cod::GenerateQueries(attrs, 5, query_rng);
  for (const cod::Query& q : queries) {
    const cod::CodResult r = engine.Query(
        {.variant = cod::CodVariant::kCodL,
         .node = q.node,
         .k = engine.options().k,
         .attrs = {q.attribute}},
        ws);
    std::printf("author %-5u topic %-7s -> ", q.node,
                attrs.Name(q.attribute).c_str());
    if (!r.found) {
      std::printf("no characteristic community\n");
      continue;
    }
    std::printf("community of %zu co-authors, author ranks #%u%s\n",
                r.members.size(), r.rank + 1,
                r.answered_from_index ? " [index]" : "");
  }
  return 0;
}
