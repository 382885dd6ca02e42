#include "core/rf_localizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cocoa::core {

RfLocalizer::RfLocalizer(const GridConfig& grid_config,
                         std::shared_ptr<const KernelBank> kernels, Options options)
    : grid_(grid_config), kernels_(std::move(kernels)), options_(options) {
    if (!kernels_) {
        throw std::invalid_argument("RfLocalizer: kernel bank required");
    }
    if (kernels_->floor_fraction() != grid_config.floor_fraction) {
        throw std::invalid_argument("RfLocalizer: bank floor differs from the grid's");
    }
    if (options_.min_beacons < 1) {
        throw std::invalid_argument("RfLocalizer: min_beacons must be >= 1");
    }
}

RfLocalizer::RfLocalizer(const GridConfig& grid_config,
                         std::shared_ptr<const KernelBank> kernels)
    : RfLocalizer(grid_config, std::move(kernels), Options{}) {}

std::optional<Fix> RfLocalizer::compute_fix(
    const std::vector<BeaconObservation>& observations) {
    const phy::PdfTable& table = kernels_->table();
    std::vector<RangedBeacon> beacons;
    beacons.reserve(observations.size());
    for (const BeaconObservation& obs : observations) {
        if (obs.rssi_dbm < options_.rssi_cutoff_dbm) {
            ++stats_.beacons_without_bin;
            continue;
        }
        const phy::DistancePdf* pdf = table.lookup(obs.rssi_dbm);
        if (pdf == nullptr) {
            ++stats_.beacons_without_bin;
            continue;
        }
        if (!pdf->gaussian_fit_ok && !options_.use_non_gaussian_bins) {
            ++stats_.beacons_non_gaussian;
            continue;
        }
        beacons.push_back({obs.anchor_position,
                           static_cast<std::size_t>(pdf - table.bins().data()), pdf->mean_m,
                           pdf->sigma_m});
    }
    if (static_cast<int>(beacons.size()) < options_.min_beacons) {
        ++stats_.rejected_too_few;
        return std::nullopt;
    }
    ++stats_.fixes;
    switch (options_.technique) {
        case RfTechnique::BayesianGrid:
            return bayesian_fix(beacons);
        case RfTechnique::WeightedCentroid:
            return centroid_fix(beacons);
        case RfTechnique::LeastSquares:
            return least_squares_fix(beacons);
    }
    return bayesian_fix(beacons);
}

Fix RfLocalizer::bayesian_fix(const std::vector<RangedBeacon>& beacons) {
    grid_.reset_uniform();
    for (const RangedBeacon& b : beacons) {
        grid_.apply_constraint(b.anchor, kernels_->kernel(b.bin));
    }
    return Fix{grid_.mean(), static_cast<int>(beacons.size()), grid_.spread()};
}

Fix RfLocalizer::centroid_fix(const std::vector<RangedBeacon>& beacons) const {
    // Distance-weighted centroid: closer anchors dominate. A classic cheap
    // baseline (no grid, no iteration); biased toward anchor clusters.
    geom::Vec2 acc;
    double total = 0.0;
    for (const RangedBeacon& b : beacons) {
        const double w = 1.0 / ((b.distance_m + 1.0) * (b.distance_m + 1.0));
        acc += b.anchor * w;
        total += w;
    }
    geom::Vec2 est = total > 0.0 ? acc / total : grid_.area().center();
    est = grid_.area().clamp(est);
    // Confidence proxy: weighted RMS of ranged distances (a tight cluster of
    // close anchors is trustworthy).
    double spread = 0.0;
    for (const RangedBeacon& b : beacons) {
        spread += b.distance_m * b.distance_m;
    }
    spread = std::sqrt(spread / static_cast<double>(beacons.size()));
    return Fix{est, static_cast<int>(beacons.size()), spread};
}

Fix RfLocalizer::least_squares_fix(const std::vector<RangedBeacon>& beacons) const {
    // Gauss-Newton on  sum_i ((|x - a_i| - d_i) / sigma_i)^2, started from
    // the weighted centroid.
    geom::Vec2 x = centroid_fix(beacons).position;
    constexpr int kIterations = 15;
    for (int it = 0; it < kIterations; ++it) {
        // Normal equations: (J^T W J) dx = -J^T W r, with 2x2 JtWJ.
        double a11 = 0.0;
        double a12 = 0.0;
        double a22 = 0.0;
        double b1 = 0.0;
        double b2 = 0.0;
        for (const RangedBeacon& b : beacons) {
            const geom::Vec2 diff = x - b.anchor;
            const double dist = std::max(diff.norm(), 1e-6);
            const geom::Vec2 j = diff / dist;  // gradient of |x - a|
            const double sigma = std::max(b.sigma_m, 0.5);
            const double w = 1.0 / (sigma * sigma);
            const double r = dist - b.distance_m;
            a11 += w * j.x * j.x;
            a12 += w * j.x * j.y;
            a22 += w * j.y * j.y;
            b1 += w * j.x * r;
            b2 += w * j.y * r;
        }
        const double det = a11 * a22 - a12 * a12;
        if (std::abs(det) < 1e-12) break;
        const geom::Vec2 dx{(-b1 * a22 + b2 * a12) / det, (-b2 * a11 + b1 * a12) / det};
        x += dx;
        if (dx.norm() < 1e-4) break;
    }
    x = grid_.area().clamp(x);
    // Residual RMS as the confidence measure.
    double rss = 0.0;
    for (const RangedBeacon& b : beacons) {
        const double r = geom::distance(x, b.anchor) - b.distance_m;
        rss += r * r;
    }
    const double spread = std::sqrt(rss / static_cast<double>(beacons.size()));
    return Fix{x, static_cast<int>(beacons.size()), spread};
}

}  // namespace cocoa::core
