#include "est/estimator.hpp"

#include <stdexcept>
#include <utility>

#include "est/ekf_cl.hpp"
#include "est/grid.hpp"
#include "est/lincvx.hpp"
#include "sim/checkpoint.hpp"

namespace cocoa::est {

const char* to_string(Backend backend) {
    switch (backend) {
        case Backend::Grid: return "grid";
        case Backend::Ekf: return "ekf";
        case Backend::LinCvx: return "lincvx";
    }
    return "?";
}

std::optional<Backend> parse_backend(std::string_view name) {
    if (name == "grid") return Backend::Grid;
    if (name == "ekf") return Backend::Ekf;
    if (name == "lincvx") return Backend::LinCvx;
    return std::nullopt;
}

const core::RfLocalizer::Stats& Estimator::localizer_stats() const {
    static const core::RfLocalizer::Stats kZero{};
    return kZero;
}

void Estimator::save_state(sim::ckpt::Writer& w) const {
    w.b(ever_fixed_);
    w.f64(last_fix_spread_m_);
}

void Estimator::load_state(sim::ckpt::Reader& r) {
    ever_fixed_ = r.b();
    last_fix_spread_m_ = r.f64();
}

std::unique_ptr<Estimator> make_estimator(
    const Config& config, std::shared_ptr<const core::KernelBank> kernels,
    mobility::OdometryEstimator* odometry) {
    if (!kernels) throw std::invalid_argument("make_estimator: kernel bank required");
    switch (config.backend) {
        case Backend::Ekf:
            return std::make_unique<EkfClEstimator>(config, kernels->table_ptr());
        case Backend::LinCvx:
            return std::make_unique<LinCvxEstimator>(config, kernels->table_ptr());
        case Backend::Grid:
            break;
    }
    return std::make_unique<GridEstimator>(config, std::move(kernels), odometry);
}

}  // namespace cocoa::est
