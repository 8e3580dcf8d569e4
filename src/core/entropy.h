// Exact empirical entropy / joint entropy / mutual information kernels
// (Definitions 1 and 2 of the paper). These are the ground truth used by
// the Exact baseline, the accuracy metrics, and the tests.

#ifndef SWOPE_CORE_ENTROPY_H_
#define SWOPE_CORE_ENTROPY_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/table/column.h"
#include "src/table/table.h"

namespace swope {

/// H_D(alpha): empirical entropy (bits) of a column over all its rows.
double ExactEntropy(const Column& column);

/// H_D(alpha1, alpha2): empirical joint entropy (bits). Columns must have
/// equal length. Uses a dense joint table when u1*u2 is small and a hash
/// map otherwise.
Result<double> ExactJointEntropy(const Column& a, const Column& b);

/// I_D(alpha1, alpha2) = H(a) + H(b) - H(a, b), clamped to >= 0 against
/// floating-point noise.
Result<double> ExactMutualInformation(const Column& a, const Column& b);

/// Exact entropies for every column of a table.
std::vector<double> ExactEntropies(const Table& table);

/// Exact MI of every column against the target column index (the target's
/// own slot is set to 0). Returns InvalidArgument when `target` is out of
/// range.
Result<std::vector<double>> ExactMutualInformations(const Table& table,
                                                    size_t target);

}  // namespace swope

#endif  // SWOPE_CORE_ENTROPY_H_
