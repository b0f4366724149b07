// Fixture: must trigger [hot-path].  Every flagged construct appears
// inside a marked region: raw new, make_unique, by-value container
// construction, to_string, push_back, stable_sort, plus an unclosed region
// marker.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

double per_round_allocations(int n) {
  // rrf-hot-path: begin(fixture.round)
  std::vector<double> fresh(static_cast<unsigned>(n));  // constructs
  std::string label = std::to_string(n);                // two findings
  auto owned = std::make_unique<double[]>(4);
  double* raw = new double[8];
  fresh.push_back(static_cast<double>(label.size()));
  std::stable_sort(fresh.begin(), fresh.end());  // temporary buffer
  delete[] raw;
  // rrf-hot-path: end(fixture.round)
  return fresh[0] + owned[0];
}

// rrf-hot-path: begin(fixture.unclosed)
