#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "phy/pdf_table.hpp"

namespace cocoa::core {

/// One beacon constraint Constraint(x, y) = PDF(d((x, y), anchor)) + floor,
/// precomputed as a 1-D table over *squared* distance q = d².
///
/// The grid loop in BayesGrid::apply_constraint only ever needs squared
/// distances (which it can form incrementally with two adds per cell), so the
/// kernel is parameterised by q and the per-cell work becomes a table lookup
/// plus a few multiplies — no sqrt, no exp.
///
/// Representation: cubic Hermite segments on a uniform q-lattice, storing the
/// node value g(√q) and the scaled tangent dq·dg/dq. Piecewise-linear
/// interpolation cannot reach the ~1e-10 relative accuracy budget without
/// ~20x more nodes, because the interpolation error of a linear segment grows
/// with Δq² while Hermite grows with Δq⁴.
///
/// Three regions make the table both small and exact where it matters:
///  - |d - mean| > 8.5σ: the Gaussian is < 3e-16 of its peak, i.e. ~1e-14 of
///    the default constraint floor, so the kernel returns the floor exactly
///    and the table only spans the significant band.
///  - q < q_exact(): near d → 0 the map q ↦ g(√q) has unbounded derivatives
///    (d g/d q = g'(d)/2d), so interpolation degrades. The constructor
///    self-certifies the table — it probes every segment against the exact
///    kernel and falls back to direct sqrt+exp evaluation below the last
///    q that misses the tolerance. For far-anchor constraints this region is
///    empty; for near-anchor ones it covers only the handful of cells next
///    to the anchor.
///  - otherwise: Hermite interpolation, certified to ~1e-10 relative error.
class RadialKernel {
  public:
    /// `floor` is the constant the grid adds to the Gaussian density (its
    /// floor_fraction times the peak); baking it into the kernel keeps the
    /// grid loop to a single eval call. Throws std::invalid_argument unless
    /// mean and sigma are finite, sigma is positive and the squared-distance
    /// band is representable.
    RadialKernel(double mean_m, double sigma_m, double floor);

    /// The constraint kernel of a PDF-table bin: its Gaussian plus a floor of
    /// `floor_fraction` times the Gaussian's own peak (so the relative damping
    /// of off-ring cells is scale-free; GridConfig::floor_fraction).
    static RadialKernel for_pdf(double mean_m, double sigma_m, double floor_fraction);

    /// Constraint value at squared distance q. The hot path: callers iterate
    /// the grid in q-space and never take a square root.
    double eval_q(double q) const {
        if (q < q_lo_ || q >= q_hi_) return floor_;
        if (q < q_exact_) return eval_exact_q(q);
        const double s = (q - q_lo_) * inv_dq_;
        std::size_t i = static_cast<std::size_t>(s);
        if (i >= interval_count_) i = interval_count_ - 1;  // q just below q_hi_
        const double t = s - static_cast<double>(i);
        const double t2 = t * t;
        const double t3 = t2 * t;
        const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        const double h10 = t3 - 2.0 * t2 + t;
        const double h01 = 3.0 * t2 - 2.0 * t3;
        const double h11 = t3 - t2;
        return h00 * value_[i] + h10 * slope_[i] + h01 * value_[i + 1] +
               h11 * slope_[i + 1] + floor_;
    }

    /// Reference evaluation at distance d: Gaussian density plus floor. The
    /// exact path apply_constraint_exact (and the self-certification pass)
    /// are built on this.
    double eval_exact_d(double distance_m) const;

    double floor() const { return floor_; }
    double mean_m() const { return mean_; }
    double sigma_m() const { return sigma_; }

    // Introspection for tests and the performance docs.
    std::size_t node_count() const { return value_.size(); }
    double q_lo() const { return q_lo_; }
    double q_hi() const { return q_hi_; }
    double q_exact() const { return q_exact_; }

    // Raw table access for the blocked grid kernels (core/grid_kernels): the
    // vector paths evaluate the same Hermite segments lane-wise, so they need
    // the SoA node arrays and the lattice constants directly.
    double inv_dq() const { return inv_dq_; }
    std::size_t interval_count() const { return interval_count_; }
    const double* values() const { return value_.data(); }
    const double* slopes() const { return slope_.data(); }

  private:
    double eval_exact_q(double q) const;

    double mean_ = 0.0;
    double sigma_ = 0.0;
    double floor_ = 0.0;
    double peak_ = 0.0;
    double neg_half_inv_sigma_sq_ = 0.0;
    double q_lo_ = 0.0;
    double q_hi_ = 0.0;
    double dq_ = 0.0;
    double inv_dq_ = 0.0;
    double q_exact_ = 0.0;
    std::size_t interval_count_ = 0;
    std::vector<double> value_;  ///< g(√q) at each node (floor added at eval)
    std::vector<double> slope_;  ///< dq · d g(√q)/dq at each node
};

/// The kernels of one PDF table under one floor_fraction, one per table bin,
/// shared by every grid that folds beacons through that table (§2.2: one PDF
/// Table, stored at each node). A bin's kernel is built on its first lookup
/// and published lock-free: the first builder compare-exchanges it into the
/// bin's slot, and a thread that loses the race frees its copy and uses the
/// winner's. A kernel is a pure function of (mean, sigma, floor), so the
/// published bytes never depend on which thread won, and lookups are safe
/// from any thread. Holders (a Scenario, its estimators, fork cells reusing
/// a prefix's bank) share it by shared_ptr; the last one frees the kernels.
class KernelBank {
  public:
    KernelBank(std::shared_ptr<const phy::PdfTable> table, double floor_fraction);
    ~KernelBank();
    KernelBank(const KernelBank&) = delete;
    KernelBank& operator=(const KernelBank&) = delete;

    const phy::PdfTable& table() const { return *table_; }
    const std::shared_ptr<const phy::PdfTable>& table_ptr() const { return table_; }
    double floor_fraction() const { return floor_fraction_; }

    /// The kernel of bin `bin` (an index into table().bins()), built on first
    /// use. Throws std::out_of_range past the table and std::invalid_argument
    /// for a bin no kernel can be built from.
    const RadialKernel& kernel(std::size_t bin) const {
        const RadialKernel* k =
            bin < slots_.size() ? slots_[bin].load(std::memory_order_acquire) : nullptr;
        return k != nullptr ? *k : build(bin);
    }
    /// Whether bin `bin`'s kernel is published (never builds).
    bool is_built(std::size_t bin) const {
        return bin < slots_.size() && slots_[bin].load(std::memory_order_acquire) != nullptr;
    }

  private:
    const RadialKernel& build(std::size_t bin) const;

    std::shared_ptr<const phy::PdfTable> table_;
    double floor_fraction_;
    mutable std::vector<std::atomic<const RadialKernel*>> slots_;
};

}  // namespace cocoa::core
