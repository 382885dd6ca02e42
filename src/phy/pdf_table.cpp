#include "phy/pdf_table.hpp"

#include <cmath>
#include <iomanip>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cocoa::phy {

namespace {

constexpr double kPi = 3.14159265358979323846;

struct Moments {
    double mean = 0.0;
    double sigma = 0.0;
    double skewness = 0.0;
    double excess_kurtosis = 0.0;
};

Moments compute_moments(const std::vector<double>& xs) {
    Moments m;
    const auto n = static_cast<double>(xs.size());
    if (xs.empty()) return m;
    double sum = 0.0;
    for (const double x : xs) sum += x;
    m.mean = sum / n;
    double m2 = 0.0;
    double m3 = 0.0;
    double m4 = 0.0;
    for (const double x : xs) {
        const double d = x - m.mean;
        m2 += d * d;
        m3 += d * d * d;
        m4 += d * d * d * d;
    }
    m2 /= n;
    m3 /= n;
    m4 /= n;
    m.sigma = std::sqrt(m2);
    if (m2 > 0.0) {
        m.skewness = m3 / (m2 * m.sigma);
        m.excess_kurtosis = m4 / (m2 * m2) - 3.0;
    }
    return m;
}

}  // namespace

double DistancePdf::density(double distance_m) const {
    if (sigma_m <= 0.0) return 0.0;
    const double z = (distance_m - mean_m) / sigma_m;
    return std::exp(-0.5 * z * z) / (sigma_m * std::sqrt(2.0 * kPi));
}

PdfTable PdfTable::calibrate(const Channel& channel, const CalibrationConfig& config,
                             sim::RandomStream rng) {
    if (config.min_distance_m <= 0.0 || config.max_distance_m <= config.min_distance_m) {
        throw std::invalid_argument("PdfTable: bad calibration distance range");
    }
    if (config.distance_step_m <= 0.0 || config.samples_per_distance < 1) {
        throw std::invalid_argument("PdfTable: bad calibration density");
    }

    // Sweep the field: many RSSI observations at each distance, binned by
    // integer dBm. Under a uniform sweep this collects, per bin, samples of
    // the distance distribution conditioned on that RSSI.
    std::map<int, std::vector<double>> samples_by_bin;
    for (double d = config.min_distance_m; d <= config.max_distance_m;
         d += config.distance_step_m) {
        for (int i = 0; i < config.samples_per_distance; ++i) {
            const double rssi = channel.sample_rssi_dbm(d, rng);
            const int bin = static_cast<int>(std::lround(rssi));
            samples_by_bin[bin].push_back(d);
        }
    }
    if (samples_by_bin.empty()) {
        throw std::logic_error("PdfTable: calibration produced no samples");
    }

    const int min_rssi = samples_by_bin.begin()->first;
    const int max_rssi = samples_by_bin.rbegin()->first;
    std::vector<DistancePdf> bins(static_cast<std::size_t>(max_rssi - min_rssi + 1));
    for (const auto& [bin, samples] : samples_by_bin) {
        DistancePdf& pdf = bins[static_cast<std::size_t>(bin - min_rssi)];
        const Moments m = compute_moments(samples);
        pdf.mean_m = m.mean;
        pdf.sigma_m = m.sigma;
        pdf.sample_count = static_cast<int>(samples.size());
        pdf.skewness = m.skewness;
        pdf.excess_kurtosis = m.excess_kurtosis;
        // Thresholds widen to 3 standard errors (SE(skew) ~ sqrt(6/n),
        // SE(kurt) ~ sqrt(24/n)) so thin bins are judged fairly.
        const double n = static_cast<double>(pdf.sample_count);
        const double skew_thr =
            std::max(config.skewness_threshold, 3.0 * std::sqrt(6.0 / n));
        const double kurt_thr =
            std::max(config.kurtosis_threshold, 3.0 * std::sqrt(24.0 / n));
        pdf.gaussian_fit_ok = pdf.sample_count >= config.min_bin_samples &&
                              m.sigma > 0.0 && std::abs(m.skewness) <= skew_thr &&
                              std::abs(m.excess_kurtosis) <= kurt_thr;
    }

    if (config.enforce_contiguous_regime) {
        // Scan from the strongest RSSI downward; the Gaussian regime ends
        // where the local neighbourhood stops passing (majority vote over a
        // 5-bin window of usable bins). Everything at or above the boundary
        // is healed to pass; everything below fails.
        std::vector<std::size_t> usable;  // indices, strongest first
        for (std::size_t i = bins.size(); i-- > 0;) {
            if (bins[i].sample_count >= config.min_bin_samples && bins[i].sigma_m > 0.0) {
                usable.push_back(i);
            }
        }
        std::size_t boundary_pos = usable.size();  // boundary in `usable` order
        constexpr std::size_t kHalfWin = 2;        // 5-bin centered window
        for (std::size_t k = 0; k < usable.size(); ++k) {
            const std::size_t begin = k >= kHalfWin ? k - kHalfWin : 0;
            const std::size_t end = std::min(k + kHalfWin, usable.size() - 1);
            int passes = 0;
            for (std::size_t j = begin; j <= end; ++j) {
                passes += bins[usable[j]].gaussian_fit_ok ? 1 : 0;
            }
            const std::size_t window = end - begin + 1;
            if (2 * static_cast<std::size_t>(passes) < window + 1) {  // < majority
                boundary_pos = k;
                break;
            }
        }
        for (std::size_t k = 0; k < usable.size(); ++k) {
            bins[usable[k]].gaussian_fit_ok = k < boundary_pos;
        }
    }

    PdfTable table(min_rssi, std::move(bins));
    table.min_bin_samples_ = config.min_bin_samples;
    return table;
}

const DistancePdf* PdfTable::lookup(double rssi_dbm) const {
    const int bin = static_cast<int>(std::lround(rssi_dbm));
    if (bin < min_rssi_ || bin > max_rssi_dbm()) return nullptr;
    const DistancePdf& pdf = bins_[static_cast<std::size_t>(bin - min_rssi_)];
    if (pdf.sample_count < min_bin_samples_ || pdf.sigma_m <= 0.0) return nullptr;
    return &pdf;
}

std::size_t PdfTable::usable_bin_count() const {
    std::size_t n = 0;
    for (const DistancePdf& pdf : bins_) {
        if (pdf.sample_count >= min_bin_samples_ && pdf.sigma_m > 0.0) ++n;
    }
    return n;
}

void PdfTable::save(std::ostream& os) const {
    os << "cocoa-pdf-table 1\n";
    os << min_rssi_ << ' ' << bins_.size() << ' ' << min_bin_samples_ << '\n';
    os << std::setprecision(17);
    for (const DistancePdf& pdf : bins_) {
        os << pdf.mean_m << ' ' << pdf.sigma_m << ' ' << (pdf.gaussian_fit_ok ? 1 : 0)
           << ' ' << pdf.sample_count << ' ' << pdf.skewness << ' '
           << pdf.excess_kurtosis << '\n';
    }
}

PdfTable PdfTable::load(std::istream& is) {
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "cocoa-pdf-table" || version != 1) {
        throw std::invalid_argument("PdfTable::load: bad header");
    }
    int min_rssi = 0;
    std::size_t count = 0;
    int min_bin_samples = 0;
    if (!(is >> min_rssi >> count >> min_bin_samples) || count == 0 ||
        count > 100000) {
        throw std::invalid_argument("PdfTable::load: bad dimensions");
    }
    std::vector<DistancePdf> bins(count);
    for (DistancePdf& pdf : bins) {
        int gaussian = 0;
        if (!(is >> pdf.mean_m >> pdf.sigma_m >> gaussian >> pdf.sample_count >>
              pdf.skewness >> pdf.excess_kurtosis)) {
            throw std::invalid_argument("PdfTable::load: truncated bin data");
        }
        // A bin is a distance distribution: finite, non-negative moments.
        // The grid localizer squares distances out to ~8.5 sigma past the
        // mean, so that reach must stay representable when squared.
        const double reach = pdf.mean_m + 10.0 * pdf.sigma_m;
        if (!(pdf.mean_m >= 0.0) || !(pdf.sigma_m >= 0.0) || !std::isfinite(reach * reach)) {
            throw std::invalid_argument("PdfTable::load: bin moments out of range");
        }
        pdf.gaussian_fit_ok = gaussian != 0;
    }
    PdfTable table(min_rssi, std::move(bins));
    table.min_bin_samples_ = min_bin_samples;
    return table;
}

std::optional<int> PdfTable::weakest_gaussian_rssi() const {
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i].gaussian_fit_ok) return min_rssi_ + static_cast<int>(i);
    }
    return std::nullopt;
}

}  // namespace cocoa::phy
