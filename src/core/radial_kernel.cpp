#include "core/radial_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/profile.hpp"

namespace cocoa::core {
namespace {

// Beyond this many sigmas the Gaussian is < 3e-16 of its peak — far below
// any rounding the posterior can resolve — so the kernel truncates to the
// floor and the table only covers the significant band.
constexpr double kBandSigmas = 8.5;

// Per-probe relative tolerance of the self-certification pass. One order
// tighter than the 1e-9 equivalence the tests demand of the posterior, so a
// whole grid of certified evaluations stays comfortably inside it.
constexpr double kCertifyTol = 1e-10;

}  // namespace

RadialKernel::RadialKernel(double mean_m, double sigma_m, double floor)
    : mean_(mean_m), sigma_(sigma_m), floor_(floor) {
    if (!std::isfinite(mean_) || !std::isfinite(sigma_) || !(sigma_ > 0.0)) {
        throw std::invalid_argument("RadialKernel: need finite mean and sigma, sigma > 0");
    }
    peak_ = 1.0 / (sigma_ * std::sqrt(2.0 * 3.14159265358979323846));
    neg_half_inv_sigma_sq_ = -0.5 / (sigma_ * sigma_);

    const double d_lo = std::max(0.0, mean_ - kBandSigmas * sigma_);
    const double d_hi = mean_ + kBandSigmas * sigma_;
    q_lo_ = d_lo * d_lo;
    q_hi_ = d_hi * d_hi;

    // Node spacing: a q-step of Δq is a distance step of Δq/2d, so resolving
    // the Gaussian to ~σ/400 at the innermost radius where it still carries
    // mass (d_ref) needs Δq ≈ d_ref·σ/200. Near-anchor constraints would ask
    // for enormous tables (d_ref → 0), hence the cap — the certification
    // pass below simply grows the exact-evaluation region to compensate.
    const double d_ref = std::max(mean_ - 6.0 * sigma_, 0.25 * sigma_);
    const double dq_target = d_ref * sigma_ / 200.0;
    const double want = std::ceil((q_hi_ - q_lo_) / dq_target);
    const double intervals = std::clamp(want, 64.0, 32768.0);
    dq_ = (q_hi_ - q_lo_) / intervals;
    inv_dq_ = 1.0 / dq_;
    // A band too wide to square (q_hi_ overflows) or too thin to step through
    // leaves no usable lattice — and a NaN interval count.
    if (!std::isfinite(q_hi_) || !(dq_ > 0.0) || !std::isfinite(inv_dq_) ||
        !std::isfinite(neg_half_inv_sigma_sq_)) {
        throw std::invalid_argument("RadialKernel: squared-distance band not representable");
    }
    interval_count_ = static_cast<std::size_t>(intervals);

    value_.resize(interval_count_ + 1);
    slope_.resize(interval_count_ + 1);
    for (std::size_t i = 0; i <= interval_count_; ++i) {
        const double q = q_lo_ + static_cast<double>(i) * dq_;
        const double d = std::sqrt(q);
        const double u = d - mean_;
        const double g = peak_ * std::exp(u * u * neg_half_inv_sigma_sq_);
        value_[i] = g;
        // dg/dq = g'(d)/(2d) with g'(d) = -(u/σ²)·g; singular at d = 0, where
        // the certified exact region takes over anyway.
        slope_[i] = d > 0.0 ? dq_ * (u * neg_half_inv_sigma_sq_ * g / d) : 0.0;
    }

    // Self-certification: probe every segment against the exact kernel and
    // evaluate exactly below the last q that misses the tolerance. The √q
    // reparameterisation makes the interpolation error decrease outward, so
    // the failing segments (if any) form a prefix near the anchor.
    const double tiny = peak_ * 1e-12;  // guards the ratio when floor == 0
    q_exact_ = q_lo_;
    for (std::size_t i = 0; i < interval_count_; ++i) {
        for (const double f : {0.25, 0.5, 0.75}) {
            const double q = q_lo_ + (static_cast<double>(i) + f) * dq_;
            const double exact = eval_exact_q(q);
            const double err = std::abs(eval_q(q) - exact) / std::max(exact, tiny);
            if (err > kCertifyTol) {
                q_exact_ = q_lo_ + static_cast<double>(i + 1) * dq_;
                break;
            }
        }
    }
}

RadialKernel RadialKernel::for_pdf(double mean_m, double sigma_m, double floor_fraction) {
    const double peak = 1.0 / (sigma_m * std::sqrt(2.0 * 3.14159265358979323846));
    return RadialKernel(mean_m, sigma_m, floor_fraction * peak);
}

double RadialKernel::eval_exact_d(double distance_m) const {
    const double u = distance_m - mean_;
    return peak_ * std::exp(u * u * neg_half_inv_sigma_sq_) + floor_;
}

double RadialKernel::eval_exact_q(double q) const { return eval_exact_d(std::sqrt(q)); }

KernelBank::KernelBank(std::shared_ptr<const phy::PdfTable> table, double floor_fraction)
    : table_(std::move(table)), floor_fraction_(floor_fraction) {
    if (!table_) throw std::invalid_argument("KernelBank: PDF table required");
    if (!(floor_fraction_ >= 0.0 && floor_fraction_ < 1.0)) {
        throw std::invalid_argument("KernelBank: floor_fraction must be in [0, 1)");
    }
    slots_ = std::vector<std::atomic<const RadialKernel*>>(table_->bin_count());
}

KernelBank::~KernelBank() {
    for (const auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
}

const RadialKernel& KernelBank::build(std::size_t bin) const {
    if (bin >= slots_.size()) throw std::out_of_range("KernelBank: bin past the table");
    obs::ProfileScope profile("core.kernel_build");
    const phy::DistancePdf& pdf = table_->bins()[bin];
    auto built = std::make_unique<const RadialKernel>(
        RadialKernel::for_pdf(pdf.mean_m, pdf.sigma_m, floor_fraction_));
    const RadialKernel* published = nullptr;
    if (slots_[bin].compare_exchange_strong(published, built.get(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        return *built.release();
    }
    return *published;  // another thread won the race; ours is freed
}

}  // namespace cocoa::core
