#ifndef UGS_GEN_DATASETS_H_
#define UGS_GEN_DATASETS_H_

#include <cstdint>
#include <string>

#include "graph/uncertain_graph.h"

namespace ugs {

/// Synthetic stand-ins for the paper's evaluation datasets (Table 1).
///
/// The real Flickr and Twitter uncertain graphs are not redistributable, so
/// these generators reproduce the characteristics the sparsification
/// algorithms are sensitive to -- degree skew, |E|/|V| ratio, and the
/// edge-probability distribution -- at a laptop-friendly scale. `scale`
/// multiplies the vertex count; scale = 1 gives the bench defaults below.
///
/// Paper originals:
///   Flickr   78 322 V, 10 171 509 E, E/V = 129.9, E[p] = 0.09, E[d] = 22.9
///   Twitter  26 362 V,    663 766 E, E/V =  25.2, E[p] = 0.15, E[d] =  7.7

/// Dense low-probability social graph in the Flickr regime
/// (power-law degrees, E[p] ~= 0.09). Default 2 500 V, E/V ~= 36.
UncertainGraph MakeFlickrLike(double scale = 1.0, std::uint64_t seed = 42);

/// Sparser, higher-probability graph in the Twitter regime: E[p] ~= 0.15
/// with a near-deterministic minority of edges (influence scores close to
/// 1), which is the regime where the NI baseline is competitive at small
/// alpha (paper Section 6.2). Default 3 000 V, E/V ~= 12.
UncertainGraph MakeTwitterLike(double scale = 1.0, std::uint64_t seed = 43);

/// Stand-in for the paper's "Flickr reduced" testbed of Section 6.1 (5 000
/// vertices sampled from Flickr with Forest Fire [22]): a Forest-Fire
/// sample of MakeFlickrLike. Default ~1 000 V. Used where the LP solver
/// must stay tractable (Table 2, Figures 4-5).
UncertainGraph MakeFlickrReduced(double scale = 1.0, std::uint64_t seed = 44);

/// The paper's synthetic density sweep (Table 1 bottom): n-vertex graph
/// filled to `density_percent`% of the complete graph, probabilities from
/// the Flickr-like distribution. Paper uses n = 1000 and 15/30/50/90 %.
UncertainGraph MakeDensitySweepGraph(int density_percent,
                                     std::size_t n = 1000,
                                     std::uint64_t seed = 45);

}  // namespace ugs

#endif  // UGS_GEN_DATASETS_H_
