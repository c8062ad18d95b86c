#ifndef UGS_METRICS_EMD_DISTANCE_H_
#define UGS_METRICS_EMD_DISTANCE_H_

#include <vector>

#include "query/world_sampler.h"

namespace ugs {

/// Earth mover's distance between two empirical one-dimensional result
/// distributions (Equation 17):
///
///   D_em = sum_i |F_A(x_i) - F_B(x_i)| * (x_i - x_{i-1})
///
/// over the merged sorted support {x_0 < x_1 < ...} of both sample sets --
/// the 1-Wasserstein distance between the empirical CDFs. Sample sets may
/// have different sizes; each sample carries weight 1/size. Empty inputs
/// yield 0 (an empty set is treated as matching anything, which only
/// happens for always-disconnected SP pairs).
double EmpiricalEmd(std::vector<double> a, std::vector<double> b);

/// Query-level D_em between Monte-Carlo runs of the same query on the
/// original and sparsified graph: the per-unit EmpiricalEmd averaged over
/// units (vertices for PR/CC, pairs for SP/RL).
double MeanUnitEmd(const McSamples& original, const McSamples& sparsified);

}  // namespace ugs

#endif  // UGS_METRICS_EMD_DISTANCE_H_
