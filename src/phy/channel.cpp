#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cocoa::phy {

Channel::Channel(const ChannelConfig& config) : config_(config) {
    const double fields[] = {
        config_.tx_power_dbm,       config_.ref_distance_m,
        config_.ref_loss_db,        config_.exponent_near,
        config_.exponent_far,       config_.breakpoint_m,
        config_.sigma_ramp_end_m,   config_.shadowing_sigma_near_db,
        config_.fade_mean_far_db,   config_.shadowing_sigma_far_db,
        config_.rx_sensitivity_dbm, config_.carrier_sense_dbm,
        config_.shadowing_clamp_sigmas};
    for (const double v : fields) {
        if (!std::isfinite(v)) {
            throw std::invalid_argument("Channel: every config field must be finite");
        }
    }
    if (config_.shadowing_sigma_near_db < 0.0 || config_.shadowing_sigma_far_db < 0.0) {
        throw std::invalid_argument("Channel: shadowing sigmas must be >= 0");
    }
    if (config_.fade_mean_far_db < 0.0) {
        throw std::invalid_argument("Channel: fade_mean_far_db must be >= 0");
    }
    if (config_.ref_distance_m <= 0.0 || config_.breakpoint_m <= config_.ref_distance_m) {
        throw std::invalid_argument("Channel: need 0 < ref_distance < breakpoint");
    }
    if (config_.sigma_ramp_end_m < config_.breakpoint_m) {
        throw std::invalid_argument("Channel: sigma_ramp_end must be >= breakpoint");
    }
    if (config_.exponent_near <= 0.0 || config_.exponent_far <= 0.0) {
        throw std::invalid_argument("Channel: path-loss exponents must be positive");
    }
    if (config_.shadowing_clamp_sigmas <= 0.0) {
        throw std::invalid_argument("Channel: shadowing_clamp_sigmas must be positive");
    }
    max_range_m_ = solve_range(config_.rx_sensitivity_dbm);
    cs_range_m_ = solve_range(config_.carrier_sense_dbm);
    const double sigma_max =
        std::max(config_.shadowing_sigma_near_db, config_.shadowing_sigma_far_db);
    influence_range_m_ =
        solve_range(config_.carrier_sense_dbm - config_.shadowing_clamp_sigmas * sigma_max);
}

double Channel::mean_rssi_dbm(double distance_m) const {
    const double d = std::max(distance_m, config_.ref_distance_m);
    const double at_ref = config_.tx_power_dbm - config_.ref_loss_db;
    if (d <= config_.breakpoint_m) {
        return at_ref -
               10.0 * config_.exponent_near * std::log10(d / config_.ref_distance_m);
    }
    const double at_break =
        at_ref -
        10.0 * config_.exponent_near * std::log10(config_.breakpoint_m / config_.ref_distance_m);
    return at_break - 10.0 * config_.exponent_far * std::log10(d / config_.breakpoint_m);
}

double Channel::shadowing_sigma_db(double distance_m) const {
    if (distance_m <= config_.breakpoint_m) return config_.shadowing_sigma_near_db;
    if (distance_m >= config_.sigma_ramp_end_m) return config_.shadowing_sigma_far_db;
    const double f = (distance_m - config_.breakpoint_m) /
                     (config_.sigma_ramp_end_m - config_.breakpoint_m);
    return config_.shadowing_sigma_near_db +
           f * (config_.shadowing_sigma_far_db - config_.shadowing_sigma_near_db);
}

double Channel::fade_mean_db(double distance_m) const {
    if (distance_m <= config_.breakpoint_m) return 0.0;
    if (distance_m >= config_.sigma_ramp_end_m) return config_.fade_mean_far_db;
    const double f = (distance_m - config_.breakpoint_m) /
                     (config_.sigma_ramp_end_m - config_.breakpoint_m);
    return f * config_.fade_mean_far_db;
}

double Channel::solve_range(double threshold_dbm) const {
    // mean_rssi is strictly decreasing in distance; invert by bisection.
    double lo = config_.ref_distance_m;
    double hi = lo;
    while (mean_rssi_dbm(hi) > threshold_dbm && hi < 1e7) hi *= 2.0;
    for (int i = 0; i < 60; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (mean_rssi_dbm(mid) > threshold_dbm) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

}  // namespace cocoa::phy
