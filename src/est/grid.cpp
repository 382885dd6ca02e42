#include "est/grid.hpp"

#include <utility>

#include "sim/checkpoint.hpp"

namespace cocoa::est {

GridEstimator::GridEstimator(const Config& config,
                             std::shared_ptr<const core::KernelBank> kernels,
                             mobility::OdometryEstimator* odometry)
    : localizer_(config.grid, std::move(kernels),
                 core::RfLocalizer::Options{
                     .technique = config.technique,
                     .min_beacons = config.min_beacons_for_fix,
                     .rssi_cutoff_dbm = config.beacon_rssi_cutoff_dbm,
                     .use_non_gaussian_bins = config.use_non_gaussian_bins}),
      odometry_(odometry),
      center_(config.grid.area.center()),
      hold_fixes_(config.hold_fixes),
      rf_position_(center_) {}

void GridEstimator::reset(const geom::Vec2& /*position*/, bool position_known) {
    // The held fix restarts at the centre even for a known pose: the paper
    // never seeds the RF estimate, only the dead reckoning (which the agent
    // anchors at the true pose itself).
    rf_position_ = center_;
    ever_fixed_ = position_known;
    last_fix_spread_m_ = std::numeric_limits<double>::infinity();
}

std::optional<core::Fix> GridEstimator::compute_fix(
    const std::vector<core::BeaconObservation>& beacons) {
    return localizer_.compute_fix(beacons);
}

void GridEstimator::apply_fix(const std::optional<core::Fix>& fix, double heading) {
    if (!fix.has_value()) return;  // "continue with the old estimate" (§2.3)
    ever_fixed_ = true;
    last_fix_spread_m_ = fix->posterior_spread_m;
    if (hold_fixes_) {
        rf_position_ = fix->position;
    } else {
        // CoCoA: re-anchor dead reckoning at the fix (heading too when the
        // agent sampled the corrected one; see heading_correction_at_fix).
        odometry_->reset(fix->position, heading);
    }
}

geom::Vec2 GridEstimator::estimate() const {
    if (hold_fixes_) return rf_position_;
    return ever_fixed_ ? odometry_->position() : center_;
}

void GridEstimator::register_counters(obs::CounterRegistry& registry,
                                      const std::string& node_prefix) const {
    localizer_.register_counters(registry, node_prefix + "localizer.");
}

void GridEstimator::save_state(sim::ckpt::Writer& w) const {
    Estimator::save_state(w);
    w.f64(rf_position_.x);
    w.f64(rf_position_.y);
    const core::RfLocalizer::Stats& s = localizer_.stats();
    w.u64(s.fixes);
    w.u64(s.rejected_too_few);
    w.u64(s.beacons_without_bin);
    w.u64(s.beacons_non_gaussian);
}

void GridEstimator::load_state(sim::ckpt::Reader& r) {
    Estimator::load_state(r);
    rf_position_.x = r.f64();
    rf_position_.y = r.f64();
    core::RfLocalizer::Stats s;
    s.fixes = r.u64();
    s.rejected_too_few = r.u64();
    s.beacons_without_bin = r.u64();
    s.beacons_non_gaussian = r.u64();
    localizer_.set_stats(s);
}

}  // namespace cocoa::est
