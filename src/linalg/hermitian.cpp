#include "linalg/hermitian.hpp"

namespace cumf::linalg {

namespace {

// Register tile edge. 4x4 = 16 accumulators plus 8 operand registers stays
// comfortably inside the x86-64 SSE/AVX register budget after vectorization,
// mirroring how the paper statically places the f² accumulators in the GPU
// register file.
constexpr int kTile = 4;

// Contract one (ti, tj) tile across the bin with tile-local accumulators.
// ei/ej are the live tile extents at the matrix edge.
inline void tile_accumulate(real_t* A, const real_t* thetas, int bin, int f,
                            int ti, int tj, int ei, int ej) {
  real_t acc[kTile][kTile] = {};
  for (int k = 0; k < bin; ++k) {
    const real_t* col = thetas + static_cast<std::size_t>(k) * f;
    real_t lhs[kTile];
    real_t rhs[kTile];
    for (int i = 0; i < ei; ++i) lhs[i] = col[ti + i];
    for (int j = 0; j < ej; ++j) rhs[j] = col[tj + j];
    for (int i = 0; i < ei; ++i) {
      for (int j = 0; j < ej; ++j) {
        acc[i][j] += lhs[i] * rhs[j];
      }
    }
  }
  for (int i = 0; i < ei; ++i) {
    real_t* row = A + static_cast<std::size_t>(ti + i) * f + tj;
    for (int j = 0; j < ej; ++j) {
      row[j] += acc[i][j];
    }
  }
}

}  // namespace

void rank1_accumulate_registers(real_t* A, const real_t* thetas, int bin, int f) {
  for (int ti = 0; ti < f; ti += kTile) {
    const int ei = (f - ti < kTile) ? f - ti : kTile;
    for (int tj = 0; tj < f; tj += kTile) {
      const int ej = (f - tj < kTile) ? f - tj : kTile;
      tile_accumulate(A, thetas, bin, f, ti, tj, ei, ej);
    }
  }
}

}  // namespace cumf::linalg
