#ifndef UGS_QUERY_KNN_H_
#define UGS_QUERY_KNN_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "util/thread_pool.h"

namespace ugs {

/// DEPRECATED for direct use: prefer the unified Query API -- request
/// "knn" through GraphSession (query/graph_session.h). MostProbableKnn
/// remains as the compute kernel the registry dispatches to (through
/// MostProbableKnnBatch on the session's engine pool).

/// K-nearest-neighbor queries on uncertain graphs under the
/// most-probable-path distance (Potamias et al., PVLDB 2010 -- the
/// paper's reference [32]): the k vertices whose best path from the
/// source has the highest existence probability.
struct KnnResult {
  VertexId vertex = 0;
  double path_probability = 0.0;  ///< prod p_e of the best path.
};

/// The k nearest neighbors of `source` (excluding source itself), sorted
/// by decreasing path probability. Returns fewer than k entries when the
/// reachable component is smaller. Dijkstra with early exit after k
/// settled targets.
std::vector<KnnResult> MostProbableKnn(const UncertainGraph& graph,
                                       VertexId source, std::size_t k);

/// Batch kNN: one MostProbableKnn per source, computed in parallel on
/// `pool` (sources are independent Dijkstra runs writing disjoint slots,
/// so the result is the same at any pool width). result[i] corresponds
/// to sources[i]. The "knn" query runs this on its session's engine
/// pool.
std::vector<std::vector<KnnResult>> MostProbableKnnBatch(
    const UncertainGraph& graph, const std::vector<VertexId>& sources,
    std::size_t k, ThreadPool& pool);

}  // namespace ugs

#endif  // UGS_QUERY_KNN_H_
