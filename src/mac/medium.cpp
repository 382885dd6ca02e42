#include "mac/medium.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "mac/radio.hpp"
#include "net/packet_io.hpp"
#include "sim/checkpoint.hpp"

namespace cocoa::mac {

namespace {
/// Truncation fan-out slack: a receiver can drift this far between a frame's
/// launch and its (early) end, so the truncation query widens the cull radius
/// by it. One metre covers any robot the scenarios model for the few
/// milliseconds a frame stays on the air.
constexpr double kTruncateSlackM = 1.0;
/// Sensed vectors reserve at least this many entries so paper-scale frames
/// all draw the same-sized block from the slab pool (64 entries * 4 bytes);
/// denser swarm neighbourhoods fall through to ordinary allocation.
constexpr std::size_t kSensedReserve = 64;
/// Radius-cache sizing: 4096 masks cover a ~16 km x 16 km active area of
/// 126 m cells at the 4x4 sub-cell quantization before the LRU recycles, a
/// few hundred KB; tiles below 16 radios skip the cache (scanning a handful
/// of candidates outright is cheaper than the mask lookup).
constexpr std::size_t kRadiusCacheCapacity = 4096;
constexpr std::uint32_t kRadiusCacheDensePopulation = 16;
/// Salts of the per-receiver draw keys: RSSI and loss-drop draws of one
/// (frame, receiver) pair must never correlate.
constexpr std::uint64_t kRssiKeySalt = 0x51ed2701;
constexpr std::uint64_t kDropKeySalt = 0x7b2ec997;

std::uint64_t receiver_key(net::NodeId id, std::uint64_t salt) {
    return sim::splitmix64_mix(static_cast<std::uint64_t>(id) + salt);
}
}  // namespace

Medium::Medium(sim::Simulator& sim, const phy::Channel& channel, MediumConfig config)
    : sim_(sim),
      channel_(channel),
      config_(config),
      rssi_seed_base_(sim.rng().derive_seed("medium.rssi", 0)),
      loss_seed_base_(sim.rng().derive_seed("fault.loss", 0)),
      // Cell side = the largest radius ever queried (the truncation fan-out),
      // so every query stays within the tree's exact 3x3 neighbourhood bound.
      tree_((channel.max_influence_range_m() * (1.0 + 1e-9) + 1e-3) + kTruncateSlackM) {
    obs_.counters.add("medium.frames_sent", &stats_.frames_sent);
    obs_.counters.add("medium.missed_asleep", &stats_.missed_asleep);
    // Kernel observability. The queue stats are maintained identically by
    // both kernel implementations and the pool stats don't depend on the
    // kernel at all, so a legacy-kernel build's --counters output diffs
    // clean against the new kernel (CI's bit-identity gate relies on this).
    const sim::KernelStats& ks = sim_.kernel_stats();
    obs_.counters.add("kernel.events.scheduled", &ks.scheduled);
    obs_.counters.add("kernel.events.cancelled", &ks.cancelled);
    obs_.counters.add("kernel.events.sbo_miss", &ks.sbo_misses);
    obs_.counters.add("kernel.events.peak_pending", &ks.peak_pending);
    obs_.counters.add("kernel.events.executed", &sim_.executed_events_ref());
    const auto add_pool = [this](const char* prefix, const sim::PoolStats& ps) {
        const std::string base = std::string("kernel.pool.") + prefix;
        obs_.counters.add(base + ".reused", &ps.reused);
        obs_.counters.add(base + ".fresh", &ps.fresh);
        obs_.counters.add(base + ".oversize", &ps.oversize);
    };
    add_pool("frame", frame_pool_.stats());
    add_pool("sensed", sensed_core_->stats());
    add_pool("packet", packet_pool_.stats());
    // Inflate the influence radius by a hair so the bisection rounding in
    // solve_range can never put a should-be-visited radio on the culled side.
    cull_radius_m_ = channel_.max_influence_range_m() * (1.0 + 1e-9) + 1e-3;
    truncate_radius_m_ = cull_radius_m_ + kTruncateSlackM;
    inv_hash_cell_ = 1.0 / cull_radius_m_;
    radius_cache_.configure(tree_.cell_side_m(), cull_radius_m_,
                            kRadiusCacheCapacity, kRadiusCacheDensePopulation);
    // Steady-state scratch: sized once here so paper-scale neighbourhoods
    // never grow it again (swarm densities warm it within a few frames).
    sensed_scratch_.reserve(kSensedReserve);
}

std::size_t Medium::attach(Radio& radio) {
    const std::size_t index = radios_.size();
    radios_.push_back(&radio);
    available_.push_back(1);
    rssi_key_.push_back(receiver_key(radio.id(), kRssiKeySalt));
    drop_key_.push_back(receiver_key(radio.id(), kDropKeySalt));
    awake_.push_back(radio.awake() ? 1 : 0);
    note_stamp_.push_back(kNeverNoted);
    if (hierarchical()) {
        tree_.insert(static_cast<std::uint32_t>(index), radio.position());
    }
    return index;
}

void Medium::set_radio_available(const Radio& radio, bool available) {
    const std::size_t index = radio.attach_index();
    assert(index < radios_.size() && radios_[index] == &radio);
    if ((available_[index] != 0) == available) return;
    available_[index] = available ? 1 : 0;
    if (!hierarchical()) return;
    if (available) {
        // Re-enter the index at wherever the robot is *now* — it kept moving
        // while the radio was dark.
        tree_.insert(static_cast<std::uint32_t>(index), radio.position());
    } else {
        tree_.remove(static_cast<std::uint32_t>(index));
    }
}

void Medium::note_position_moved(const Radio& radio) {
    // Coalesce duplicate notes within one timestamp: mobility advances a
    // radio's position at most once per simulation instant (a second
    // advance_to the same time is a no-op), so a second note at the same
    // time can only repeat the first — but under the flat oracle it would
    // invalidate the whole hash again, and under the tree it pays an
    // in-cell update per duplicate caller.
    const std::int64_t now_ns = sim_.now().to_nanos();
    if (note_stamp_[radio.attach_index()] == now_ns) return;
    note_stamp_[radio.attach_index()] = now_ns;
    if (hierarchical()) {
        // No-op for detached (off / in-outage) radios; they re-enter at
        // their live position in set_radio_available.
        tree_.update(static_cast<std::uint32_t>(radio.attach_index()), radio.position());
    } else {
        // The flat oracle has no incremental path: any movement invalidates
        // the whole hash, exactly the pre-hierarchical behaviour.
        ++position_epoch_;
    }
}

void Medium::sweep_expired() {
    const sim::TimePoint now = sim_.now();
    std::erase_if(active_, [now](const auto& f) { return f->end <= now; });
    // Compact the weak launch registry in the same stride: entries die once
    // the last lock / pending callback lets go of the frame.
    std::erase_if(launched_, [](const auto& e) { return e.second.expired(); });
}

std::uint64_t Medium::hash_cell_key(double x, double y) const {
    const auto cx = static_cast<std::int64_t>(std::floor(x * inv_hash_cell_));
    const auto cy = static_cast<std::int64_t>(std::floor(y * inv_hash_cell_));
    return (static_cast<std::uint64_t>(cx) << 32) ^
           (static_cast<std::uint64_t>(cy) & 0xffffffffull);
}

void Medium::rebuild_hash_if_stale() {
    if (hash_valid_ && hash_epoch_ == position_epoch_ &&
        hash_radio_count_ == radios_.size()) {
#ifndef NDEBUG
        for (std::size_t i = 0; i < radios_.size(); ++i) {
            // A mismatch means something moved a radio without calling
            // note_position[s]_moved() — the position contract.
            assert(radios_[i]->position() == hash_positions_[i]);
        }
#endif
        return;
    }
    hash_cells_.clear();
#ifndef NDEBUG
    hash_positions_.clear();
#endif
    for (std::size_t i = 0; i < radios_.size(); ++i) {
        const geom::Vec2 pos = radios_[i]->position();
        hash_cells_[hash_cell_key(pos.x, pos.y)].push_back(static_cast<std::uint32_t>(i));
#ifndef NDEBUG
        hash_positions_.push_back(pos);
#endif
    }
    hash_valid_ = true;
    hash_epoch_ = position_epoch_;
    hash_radio_count_ = radios_.size();
    ++flat_stats_.full_rebuilds;
}

void Medium::refresh_tree_if_stale() {
    if (!bulk_stale_) {
#ifndef NDEBUG
        for (std::size_t i = 0; i < radios_.size(); ++i) {
            // A mismatch means something moved a radio without calling
            // note_position[s]_moved() — the position contract.
            assert(!available_[i] ||
                   tree_.cached_position(static_cast<std::uint32_t>(i)) ==
                       radios_[i]->position());
        }
#endif
        return;
    }
    tree_.refresh_all(
        [this](std::uint32_t id) { return radios_[id]->position(); });
    bulk_stale_ = false;
}

void Medium::sample_receivers(const Radio& sender, geom::Vec2 tx_pos,
                              std::uint64_t frame_key,
                              const phy::LossSchedule::Effect& loss_effect) {
    obs::ProfileScope profile("mac.fanout");
    // Sample each visited receiver's RSSI and record the carrier-sense
    // verdicts sparsely, so a radio that wakes mid-flight reads the same
    // answer the live path acted on. Culled (out-of-influence) radios keep
    // the not-sensed verdict their clamped draw could never overturn, and
    // unavailable (off / in-outage) radios are invisible to propagation.
    sensed_scratch_.clear();
    std::uint64_t visited = 0;
    // The stochastic tail of one receiver's evaluation, shared by the scalar
    // and vectorized paths: given the deterministic channel terms at the
    // receiver's distance, perform the counter-based draws and record the
    // sensed verdict. Keeping the draws here (scalar, ascending candidate
    // order) is what makes the vectorized fanout bitwise-neutral — the
    // kernels only batch the deterministic prefix.
    //
    // The fade draw is skipped when the shadowed power (less any loss
    // attenuation) already misses carrier sense: fades only attenuate and
    // IEEE subtraction is monotone, so the faded power would miss too. The
    // generator is private to this (frame, receiver) pair, so the skip moves
    // no other draw, and the unsensed RSSI value itself is never used.
    const auto draw = [&](std::size_t i, double mean_dbm, double sigma_db,
                          double fade_db) {
        assert(rssi_key_[i] == receiver_key(radios_[i]->id(), kRssiKeySalt));
        ++visited;
        sim::SplitMix64 rng(sim::splitmix64_mix(frame_key ^ rssi_key_[i]));
        double rssi = channel_.shadowed_rssi_dbm(mean_dbm, sigma_db, rng);
        const bool reachable = channel_.sensed(
            loss_effect.active ? rssi - loss_effect.attenuation_db : rssi);
        if (reachable) rssi = channel_.faded_rssi_dbm(rssi, fade_db, rng);
        if (loss_effect.active) {
            rssi -= loss_effect.attenuation_db;
            if (loss_effect.drop_prob > 0.0) {
                // Counter-based drop draw keyed like the RSSI draw (its own
                // base seed): dropping receiver i is a pure function of
                // (medium seed, frame number, receiver id), independent of
                // culling and of every other receiver's draw.
                assert(drop_key_[i] == receiver_key(radios_[i]->id(), kDropKeySalt));
                sim::SplitMix64 drop_rng(
                    sim::splitmix64_mix(loss_seed_base_ ^ frame_key ^ drop_key_[i]));
                const double u = static_cast<double>(drop_rng() >> 11) * 0x1.0p-53;
                if (u < loss_effect.drop_prob) {
                    // The frame never exists for this receiver: not sensed,
                    // not decodable, invisible to a wake-time rebuild too.
                    ++stats_.fault_rx_dropped;
                    return;
                }
            }
        }
        if (reachable && channel_.sensed(rssi)) {
            sensed_scratch_.push_back(
                SensedCandidate{static_cast<std::uint32_t>(i), rssi});
        }
    };
    // Scalar per-receiver evaluation (flat oracle, unculled sweep, and the
    // Serial force path): live-position distance, then the draw tail. The
    // channel terms here and in the kernels are the same out-of-line
    // functions over the same IEEE distance, so both routes feed draw()
    // identical inputs.
    const auto visit = [&](std::size_t i) {
        Radio* r = radios_[i];
        if (r == &sender) return;
        if (available_[i] == 0) return;  // dead air for dead radios
        const double dist = geom::distance(r->position(), tx_pos);
        draw(i, channel_.mean_rssi_dbm(dist), channel_.shadowing_sigma_db(dist),
             channel_.fade_mean_db(dist));
    };

    if (config_.interference_culling) {
        const double r2 = cull_radius_m_ * cull_radius_m_;
        if (hierarchical()) {
            refresh_tree_if_stale();
            if (fanout::force_path() == fanout::ForcePath::Serial) {
                // Scalar twin of the batch path below, candidate for
                // candidate: the benches' regression anchor, byte-identical
                // by the shared-draw construction.
                tree_.for_each_in_radius(
                    tx_pos, cull_radius_m_, [&](std::uint32_t i, geom::Vec2 /*cached*/) {
                        if (radios_[i] == &sender) return;
                        // Exact test against the *live* position: the cached
                        // one only bucketed the radio, and the cell window is
                        // padded so every in-radius radio is a candidate.
                        if (geom::distance_sq(radios_[i]->position(), tx_pos) > r2) return;
                        visit(i);
                    });
            } else {
                // Vectorized fanout: gather the window's candidates (cached
                // slot positions — equal to the live ones under the
                // note_position_moved contract the Debug sweep above just
                // verified) into the SoA batch, run the blocked cull +
                // channel-term kernel, then the scalar draw tail in ascending
                // lane order. The radius cache prunes provably-out-of-disk
                // window cells before the gather in dense neighbourhoods.
                fanout_batch_.clear();
                const auto sender_idx =
                    static_cast<std::uint32_t>(sender.attach_index());
                // The sender is gathered like any candidate (no per-candidate
                // branch on the hot gather) and filtered below, where the
                // check runs once per *kept* lane instead of once per lane.
                tree_.for_each_in_radius(
                    tx_pos, cull_radius_m_, &radius_cache_,
                    [&](std::uint32_t i, geom::Vec2 cached) {
                        fanout_batch_.push(i, cached.x, cached.y);
                    });
                fanout_batch_.seal();
                const std::size_t kept = fanout::cull_and_prepare(
                    fanout::make_plan(fanout_batch_, tx_pos, r2, channel_));
                for (std::size_t k = 0; k < kept; ++k) {
                    const std::size_t l = fanout_batch_.kept_lanes[k];
                    if (fanout_batch_.idx[l] == sender_idx) continue;
#ifndef NDEBUG
                    // Decodability-threshold invariant: every kept lane lies
                    // within the influence radius, where the mean plus the
                    // maximum clamped shadowing boost reaches carrier sense
                    // (the 1e-2 dB tolerance absorbs the radius inflation
                    // sliver the cull radius adds over the influence range).
                    assert(fanout_batch_.mean_dbm[l] +
                               channel_.config().shadowing_clamp_sigmas *
                                   fanout_batch_.sigma_db[l] >=
                           channel_.config().carrier_sense_dbm - 1e-2);
#endif
                    draw(fanout_batch_.idx[l], fanout_batch_.mean_dbm[l],
                         fanout_batch_.sigma_db[l], fanout_batch_.fade_db[l]);
                }
            }
        } else {
            rebuild_hash_if_stale();
            const auto tx_cx = static_cast<std::int64_t>(std::floor(tx_pos.x * inv_hash_cell_));
            const auto tx_cy = static_cast<std::int64_t>(std::floor(tx_pos.y * inv_hash_cell_));
            for (std::int64_t cy = tx_cy - 1; cy <= tx_cy + 1; ++cy) {
                for (std::int64_t cx = tx_cx - 1; cx <= tx_cx + 1; ++cx) {
                    const std::uint64_t key = (static_cast<std::uint64_t>(cx) << 32) ^
                                              (static_cast<std::uint64_t>(cy) & 0xffffffffull);
                    const auto it = hash_cells_.find(key);
                    if (it == hash_cells_.end()) continue;
                    for (const std::uint32_t i : it->second) {
                        if (radios_[i] == &sender) continue;
                        if (geom::distance_sq(radios_[i]->position(), tx_pos) > r2) continue;
                        visit(i);
                    }
                }
            }
        }
        // The CCA callbacks begin_transmission schedules must fire in attach
        // order — same-timestamp events are FIFO, and the unculled sweep
        // schedules them ascending.
        std::sort(sensed_scratch_.begin(), sensed_scratch_.end(),
                  [](const SensedCandidate& a, const SensedCandidate& b) {
                      return a.idx < b.idx;
                  });
    } else {
        for (std::size_t i = 0; i < radios_.size(); ++i) visit(i);
    }
    stats_.radios_visited += visited;
    stats_.radios_culled += static_cast<std::uint64_t>(radios_.size()) - 1 - visited;
}

void Medium::begin_transmission(Radio& sender, const net::Packet& packet,
                                sim::Duration airtime) {
    sweep_expired();
    const sim::TimePoint start = sim_.now();
    const sim::TimePoint end = start + airtime;
    const geom::Vec2 tx_pos = sender.position();

    // Per-frame key for the counter-based RSSI draws. frame_seq_ advances
    // once per transmission whether or not culling is enabled, so a frame's
    // draws are a pure function of (medium seed, frame number, receiver id).
    // The launch number doubles as the frame's durable identity
    // (AirFrame::seq) for checkpoint/restore.
    const std::uint64_t fseq = frame_seq_++;
    const std::uint64_t frame_key =
        sim::splitmix64_mix(rssi_seed_base_ ^ sim::splitmix64_mix(fseq));

    // Fault-injected loss bursts covering this frame's start (none on the
    // default path: loss_ stays empty unless a FaultInjector armed bursts).
    phy::LossSchedule::Effect loss_effect;
    if (!loss_.empty()) loss_effect = loss_.effect_at(start);

    sample_receivers(sender, tx_pos, frame_key, loss_effect);

    AirFrame::SensedBy sensed{sim::PoolAllocator<std::uint32_t>(sensed_core_)};
    sensed.reserve(std::max(kSensedReserve, sensed_scratch_.size()));
    for (const SensedCandidate& c : sensed_scratch_) sensed.push_back(c.idx);

    // One pooled block carries the shared_ptr control block and the frame;
    // in steady state both it and the sensed_by block above come straight
    // off a free list, so a transmission allocates nothing.
    auto frame = frame_pool_.acquire(
        AirFrame{packet, sender.id(), tx_pos, start, end, fseq, false, std::move(sensed)});
    active_.push_back(frame);
    launched_.emplace_back(fseq, frame);
    ++stats_.frames_sent;
    obs_.trace.complete(start, end, "mac", "frame",
                        static_cast<std::int64_t>(sender.id()),
                        {{"bytes", static_cast<double>(packet.wire_bytes())}});

    for (const SensedCandidate& c : sensed_scratch_) {
        const std::uint32_t idx = c.idx;
        const double rssi_i = c.rssi_dbm;
        const bool decodable = channel_.decodable(rssi_i);
        // Carrier sensing and receiver lock-on take a CCA delay; radio state
        // is re-checked at that point (the radio may have slept meanwhile).
        sim_.schedule_in(
            config_.cca_delay,
            [this, idx, frame, rssi_i, decodable] {
                cca_fire(idx, frame, rssi_i, decodable);
            },
            sim::make_tag(sim::EventKind::kMediumCca, c.idx, decodable ? 1u : 0u, 0,
                          fseq, std::bit_cast<std::uint64_t>(rssi_i)));
    }
}

void Medium::cca_fire(std::uint32_t idx, const std::shared_ptr<const AirFrame>& frame,
                      double rssi_dbm, bool decodable) {
    // A frame whose transmitter died within the CCA window never registers
    // at the receiver (its end may already be in the past).
    if (frame->truncated) return;
    assert((awake_[idx] != 0) == radios_[idx]->awake());
    if (awake_[idx] == 0) {
        if (decodable) ++stats_.missed_asleep;
        return;
    }
    radios_[idx]->on_frame_start(frame, rssi_dbm, decodable);
}

void Medium::truncate_transmission(Radio& sender) {
    const sim::TimePoint now = sim_.now();
    for (const auto& frame : active_) {
        if (frame->sender != sender.id() || frame->end <= now || frame->truncated) {
            continue;
        }
        frame->truncated = true;
        frame->end = now;
        ++stats_.frames_truncated;
        obs_.trace.instant(now, "mac", "frame_truncated",
                           static_cast<std::int64_t>(sender.id()));
        // Tell nearby radios the air went quiet early: carrier sense
        // shortens, and a receiver locked on this frame aborts its decode.
        // Radios beyond the (slack-padded) cull radius of the transmit
        // position never sensed the frame, so notifying them is a no-op both
        // structures skip identically.
        const double r2 = truncate_radius_m_ * truncate_radius_m_;
        const auto in_range = [&](std::uint32_t i) {
            return radios_[i] != &sender &&
                   geom::distance_sq(radios_[i]->position(), frame->sender_position) <= r2;
        };
        // Notifications restart CSMA (schedule events), so they must run in
        // ascending attach order — the order the flat sweep produces, and the
        // FIFO tie-break same-timestamp events rely on.
        std::vector<std::uint32_t> targets;
        if (hierarchical()) {
            refresh_tree_if_stale();
            tree_.for_each_in_radius(frame->sender_position, truncate_radius_m_,
                                     [&](std::uint32_t i, geom::Vec2 /*cached*/) {
                                         if (in_range(i)) targets.push_back(i);
                                     });
            std::sort(targets.begin(), targets.end());
        } else {
            // Window scan over the spatial hash instead of the old
            // all-radios sweep: the truncation radius exceeds the hash cell
            // side (cull radius) by the slack, so a 5x5 window bounds it.
            rebuild_hash_if_stale();
            const geom::Vec2 pos = frame->sender_position;
            const auto tx_cx =
                static_cast<std::int64_t>(std::floor(pos.x * inv_hash_cell_));
            const auto tx_cy =
                static_cast<std::int64_t>(std::floor(pos.y * inv_hash_cell_));
            const auto reach = static_cast<std::int64_t>(
                std::ceil(truncate_radius_m_ * inv_hash_cell_));
            for (std::int64_t cy = tx_cy - reach; cy <= tx_cy + reach; ++cy) {
                for (std::int64_t cx = tx_cx - reach; cx <= tx_cx + reach; ++cx) {
                    const std::uint64_t key =
                        (static_cast<std::uint64_t>(cx) << 32) ^
                        (static_cast<std::uint64_t>(cy) & 0xffffffffull);
                    const auto it = hash_cells_.find(key);
                    if (it == hash_cells_.end()) continue;
                    for (const std::uint32_t i : it->second) {
                        // Unavailable radios mirror the tree's membership:
                        // they rebuild carrier sense when they come back.
                        if (available_[i] == 0) continue;
                        if (in_range(i)) targets.push_back(i);
                    }
                }
            }
            // Hash cells iterate in map order; the notification contract
            // below needs ascending attach order, like the tree path.
            std::sort(targets.begin(), targets.end());
        }
        for (const std::uint32_t i : targets) radios_[i]->on_frame_truncated(frame);
    }
}

namespace {
constexpr std::uint32_t kMarkMedium = 0x4d45444du;  // "MEDM"
constexpr std::uint32_t kMarkPools = 0x4c4f4f50u;   // "POOL"

void save_core_warmth(sim::ckpt::Writer& w, const sim::SlabCore& core) {
    w.u64(core.free_count());
    const sim::PoolStats& s = core.stats();
    w.u64(s.reused);
    w.u64(s.fresh);
    w.u64(s.oversize);
}

void load_core_warmth(sim::ckpt::Reader& r, sim::SlabCore& core) {
    const std::uint64_t free_blocks = r.u64();
    core.add_free_blocks(static_cast<std::size_t>(free_blocks));
    sim::PoolStats s;
    s.reused = r.u64();
    s.fresh = r.u64();
    s.oversize = r.u64();
    core.set_stats(s);
}
}  // namespace

void Medium::save_state(sim::ckpt::Writer& w, net::PacketSaveCtx& pkts) const {
    w.mark(kMarkMedium);
    w.u64(frame_seq_);
    const auto& bursts = loss_.bursts();
    w.u64(bursts.size());
    for (const phy::LossBurst& b : bursts) {
        w.time(b.start);
        w.time(b.end);
        w.f64(b.drop_prob);
        w.f64(b.attenuation_db);
    }
    w.u64(stats_.frames_sent);
    w.u64(stats_.missed_asleep);
    w.u64(stats_.radios_visited);
    w.u64(stats_.radios_culled);
    w.u64(stats_.frames_truncated);
    w.u64(stats_.fault_rx_dropped);
    w.u64(flat_stats_.full_rebuilds);
    // Index and radius-cache bookkeeping: unregistered, but surfaced through
    // the swarm table / swarm-json line, so a restored run must report the
    // straight run's values.
    const spatial::CellTreeStats& ts = tree_.stats();
    w.u64(ts.inserts);
    w.u64(ts.removes);
    w.u64(ts.migrations);
    w.u64(ts.in_cell_updates);
    w.u64(ts.full_refreshes);
    w.u64(ts.queries);
    w.u64(ts.candidates_visited);
    w.u64(ts.cells_pruned);
    const spatial::RadiusCacheStats& rs = radius_cache_.stats();
    w.u64(rs.lookups);
    w.u64(rs.hits);
    w.u64(rs.misses);
    w.u64(rs.evictions);
    w.u64(rs.cells_pruned);
    w.u64(rs.sparse_bypass);
    // Cache content (recency order): a restored cache must be exactly as
    // warm as the straight run's, or hit/miss counts diverge afterwards.
    const auto entries = radius_cache_.export_entries();
    w.u64(entries.size());
    for (const auto& [key, mask] : entries) {
        w.u64(key);
        w.u32(mask);
    }
    // Learned block sizes come before the frames so load_state can pre-seed
    // the cores: the first restored allocation must classify exactly like the
    // straight run's did.
    w.u64(frame_pool_.core()->block_size());
    w.u64(sensed_core_->block_size());
    w.u64(packet_pool_.core()->block_size());
    // Every frame still referenced anywhere, in launch order (canonical form:
    // identical runs write identical blobs).
    std::vector<std::pair<std::uint64_t, std::shared_ptr<AirFrame>>> alive;
    for (const auto& [seq, weak] : launched_) {
        if (auto frame = weak.lock()) alive.emplace_back(seq, std::move(frame));
    }
    std::sort(alive.begin(), alive.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    w.u64(alive.size());
    for (const auto& [seq, frame] : alive) {
        w.u64(seq);
        net::save_packet(w, frame->packet, pkts);
        w.u32(frame->sender);
        w.f64(frame->sender_position.x);
        w.f64(frame->sender_position.y);
        w.time(frame->start);
        w.time(frame->end);
        w.b(frame->truncated);
        w.u64(frame->sensed_by.size());
        for (const std::uint32_t idx : frame->sensed_by) w.u32(idx);
    }
    w.u64(active_.size());
    for (const auto& frame : active_) w.u64(frame->seq);
}

void Medium::load_state(sim::ckpt::Reader& r, net::PacketLoadCtx& pkts) {
    r.expect(kMarkMedium);
    frame_seq_ = r.u64();
    const std::uint64_t nbursts = r.u64();
    for (std::uint64_t i = 0; i < nbursts; ++i) {
        phy::LossBurst b;
        b.start = r.time();
        b.end = r.time();
        b.drop_prob = r.f64();
        b.attenuation_db = r.f64();
        loss_.add(b);
    }
    stats_.frames_sent = r.u64();
    stats_.missed_asleep = r.u64();
    stats_.radios_visited = r.u64();
    stats_.radios_culled = r.u64();
    stats_.frames_truncated = r.u64();
    stats_.fault_rx_dropped = r.u64();
    flat_stats_.full_rebuilds = r.u64();
    spatial::CellTreeStats& ts = restore_tree_stats_;
    ts.inserts = r.u64();
    ts.removes = r.u64();
    ts.migrations = r.u64();
    ts.in_cell_updates = r.u64();
    ts.full_refreshes = r.u64();
    ts.queries = r.u64();
    ts.candidates_visited = r.u64();
    ts.cells_pruned = r.u64();
    spatial::RadiusCacheStats& rs = restore_cache_stats_;
    rs.lookups = r.u64();
    rs.hits = r.u64();
    rs.misses = r.u64();
    rs.evictions = r.u64();
    rs.cells_pruned = r.u64();
    rs.sparse_bypass = r.u64();
    const std::uint64_t ncached = r.u64();
    std::vector<std::pair<std::uint64_t, std::uint16_t>> entries;
    entries.reserve(static_cast<std::size_t>(ncached));
    for (std::uint64_t i = 0; i < ncached; ++i) {
        const std::uint64_t key = r.u64();
        const auto mask = static_cast<std::uint16_t>(r.u32());
        entries.emplace_back(key, mask);
    }
    radius_cache_.import_entries(entries);
    frame_pool_.core()->set_block_size(static_cast<std::size_t>(r.u64()));
    sensed_core_->set_block_size(static_cast<std::size_t>(r.u64()));
    packet_pool_.core()->set_block_size(static_cast<std::size_t>(r.u64()));
    active_.clear();
    launched_.clear();
    restore_frames_.clear();
    const std::uint64_t nframes = r.u64();
    for (std::uint64_t i = 0; i < nframes; ++i) {
        const std::uint64_t seq = r.u64();
        net::Packet packet = net::load_packet(r, pkts);
        const net::NodeId sender = r.u32();
        geom::Vec2 pos;
        pos.x = r.f64();
        pos.y = r.f64();
        const sim::TimePoint start = r.time();
        const sim::TimePoint end = r.time();
        const bool truncated = r.b();
        const std::uint64_t nsensed = r.u64();
        AirFrame::SensedBy sensed{sim::PoolAllocator<std::uint32_t>(sensed_core_)};
        // Mirror begin_transmission's reservation exactly, so the sensed
        // block classifies (pooled vs oversize) like the original did.
        sensed.reserve(std::max<std::size_t>(kSensedReserve,
                                             static_cast<std::size_t>(nsensed)));
        for (std::uint64_t k = 0; k < nsensed; ++k) sensed.push_back(r.u32());
        auto frame = frame_pool_.acquire(AirFrame{std::move(packet), sender, pos,
                                                  start, end, seq, truncated,
                                                  std::move(sensed)});
        launched_.emplace_back(seq, frame);
        restore_frames_.emplace(seq, std::move(frame));
    }
    const std::uint64_t nactive = r.u64();
    for (std::uint64_t i = 0; i < nactive; ++i) {
        active_.push_back(restored_frame(r.u64()));
    }
    // Cached positions (tree or hash) refresh wholesale before the next
    // query; membership itself is rebuilt by the radios' availability
    // restore. The churn perturbs only unregistered index stats, which
    // finish_restore() stamps back to the saved values once it is over.
    note_positions_moved();
}

void Medium::finish_restore() {
    restore_frames_.clear();
    // Run the post-load refresh sweep NOW, while it is still attributable to
    // the restore, then overwrite the bookkeeping with the snapshot values.
    // From here on the index counters advance exactly as the straight run's
    // would — a restored run's swarm table diffs clean.
    if (hierarchical()) {
        refresh_tree_if_stale();
    }
    tree_.set_stats(restore_tree_stats_);
    radius_cache_.set_stats(restore_cache_stats_);
}

const std::shared_ptr<AirFrame>& Medium::restored_frame(std::uint64_t seq) const {
    const auto it = restore_frames_.find(seq);
    if (it == restore_frames_.end()) {
        throw std::runtime_error("Medium::restored_frame: unknown frame seq " +
                                 std::to_string(seq));
    }
    return it->second;
}

void Medium::save_pool_warmth(sim::ckpt::Writer& w) const {
    w.mark(kMarkPools);
    save_core_warmth(w, *frame_pool_.core());
    save_core_warmth(w, *sensed_core_);
    save_core_warmth(w, *packet_pool_.core());
}

void Medium::load_pool_warmth(sim::ckpt::Reader& r) {
    r.expect(kMarkPools);
    load_core_warmth(r, *frame_pool_.core());
    load_core_warmth(r, *sensed_core_);
    load_core_warmth(r, *packet_pool_.core());
}

void Medium::register_rebuilders(sim::ckpt::CallbackRegistry& reg) {
    reg.add(sim::EventKind::kMediumCca, [this](const sim::EventTag& tag) {
        const std::uint32_t idx = tag.node;
        (void)radios_.at(idx);  // a blob's out-of-range index throws here
        std::shared_ptr<const AirFrame> frame = restored_frame(tag.a);
        const double rssi = std::bit_cast<double>(tag.b);
        const bool decodable = tag.x != 0;
        return sim::InplaceCallback([this, idx, frame, rssi, decodable] {
            cca_fire(idx, frame, rssi, decodable);
        });
    });
    reg.add(
        sim::EventKind::kRadioAttempt,
        [this](const sim::EventTag& tag) {
            Radio* r = radios_.at(tag.node);
            return sim::InplaceCallback([r] { r->attempt_tx(); });
        },
        [this](const sim::EventTag& tag, sim::EventId id) {
            radios_.at(tag.node)->attempt_event_ = id;
        });
    reg.add(sim::EventKind::kRadioEndTx, [this](const sim::EventTag& tag) {
        Radio* r = radios_.at(tag.node);
        return sim::InplaceCallback([r] { r->end_tx(); });
    });
    reg.add(sim::EventKind::kRadioFrameEnd, [this](const sim::EventTag& tag) {
        Radio* r = radios_.at(tag.node);
        std::shared_ptr<const AirFrame> frame = restored_frame(tag.a);
        return sim::InplaceCallback([r, frame] { r->on_frame_end(frame); });
    });
}

sim::TimePoint Medium::sensed_until_for(const Radio& listener) const {
    const std::size_t idx = listener.attach_index();
    sim::TimePoint until = sim_.now();
    for (const auto& frame : active_) {
        if (frame->end <= sim_.now() || frame->sender == listener.id()) continue;
        if (frame->senses(idx)) {
            until = std::max(until, frame->end);
        }
    }
    return until;
}

}  // namespace cocoa::mac
