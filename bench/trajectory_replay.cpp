/**
 * @file
 * Trajectory-replay benchmark: deterministic camera paths through the
 * trajectory-session serving path (models/trajectory.h,
 * RenderService::OpenSession / SubmitOptions::session).
 *
 * One scene is served to a single client whose camera pans at a fixed
 * per-frame translation step, swept from a fully static hold to a pan
 * fast enough that every frame is a coherence break. Each pan speed
 * replays the identical virtual arrival schedule through a fresh
 * service and session; a session-free baseline replays it once more
 * with every frame priced as a full recompute. The sweep is the
 * temporal-coherence payoff curve (RT-NeRF / Cicero, PAPERS.md): slow
 * motion keeps high view overlap, so frames admit at the delta price
 * and the latency percentiles bend far below the recompute baseline,
 * degrading monotonically back to it as motion outruns the overlap.
 *
 * The bench asserts the contract, not just prints it:
 *   - every static-camera frame after the first replays the one
 *     memoized delta shape bit-identically, at a virtual latency
 *     within 2x of that prepared frame's own replay estimate (and
 *     under half the full recompute) — a static camera approaches
 *     pure replay cost;
 *   - mean virtual latency grows monotonically with pan speed;
 *   - the delta path bends p50/p99 below the full-recompute baseline;
 *   - RenderService::Preview's price equals the latency admission
 *     charges (preview == admit, frame by frame);
 *   - a mid-trajectory teleport causes exactly one coherence break,
 *     exactly one extra full-price frame, and zero extra plan
 *     compiles (the break replays the scene's pinned full frame; the
 *     trajectory then resumes on the already-compiled delta shape).
 *
 * stdout (wall-clock invariant): the sweep table, the teleport
 * drill, and "[trajectory] key=value" machine lines (one per run)
 * that tools/bench_trajectory.sh folds into BENCH_ci.json. stderr:
 * wall-clock timing. --threads is validated and ignored: every frame
 * runs on the submitting thread.
 *
 * Usage: trajectory_replay [--threads N] [--frames N]
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/table.h"
#include "models/trajectory.h"
#include "runtime/sweep_runner.h"
#include "scene_repertoire.h"
#include "serve/render_service.h"

using namespace flexnerfer;

namespace {

/** One trajectory (or baseline) replay through a fresh service. */
struct RunOutput {
    ServiceStats stats;
    SessionStats session;  //!< zero row for the baseline
    std::vector<RenderResult> results;
    std::vector<double> previews;  //!< per-frame RenderService::Preview price
    double full_est_ms = 0.0;   //!< the scene's full-recompute estimate
    double wall_ms = 0.0;
};

/** The swept pan: per-frame translation step in scene units. With the
 *  default CoherenceModel (translation_scale = 1), the step IS the
 *  invalidated view fraction per frame. */
struct PanPoint {
    double step = 0.0;
    const char* label = "";
};

/**
 * Replays @p frames poses walking +x at @p pan_step per frame (with an
 * optional teleport jump before @p teleport_at) through one fresh
 * service. Arrivals are spaced at 1.05x the full-recompute estimate, so
 * the queue never builds and every accepted frame's virtual latency is
 * exactly its admitted service estimate — which is what lets the bench
 * compare pricing paths through the latency digest. @p use_session off
 * replays the identical schedule as plain full-recompute submits (the
 * baseline).
 */
RunOutput
RunTrajectory(std::size_t frames, double pan_step, bool use_session,
              std::size_t teleport_at, double teleport_jump)
{
    RenderService service(ServeConfig{});

    const NamedScene scene = PaperSceneRepertoire().front();
    service.RegisterScene(scene.name, scene.spec);

    RunOutput out;
    out.full_est_ms = EstimatedServiceMs(service.WarmScene(scene.name));
    const double interval_ms = 1.05 * out.full_est_ms;

    SessionId session = 0;
    if (use_session) session = service.OpenSession(scene.name);

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<ServeTicket> tickets;
    tickets.reserve(frames);
    double x = 0.0;
    for (std::size_t k = 0; k < frames; ++k) {
        if (k > 0) x += pan_step;
        if (teleport_at > 0 && k == teleport_at) x += teleport_jump;
        SceneRequest request;
        request.scene = scene.name;
        request.arrival_ms = static_cast<double>(k) * interval_ms;
        request.deadline_ms = 10.0 * out.full_est_ms;
        SubmitOptions options;
        options.session = session;
        options.pose.x = x;
        if (use_session) {
            out.previews.push_back(service.Preview(request, options).price_ms);
        }
        tickets.push_back(service.Submit(request, options).ticket);
    }
    out.results = service.WaitAll();
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
    out.stats = service.Snapshot();
    if (use_session) {
        FLEX_CHECK(out.stats.sessions.size() == 1);
        out.session = out.stats.sessions.front();
    }

    // The schedule leaves headroom, so nothing may shed — every frame's
    // latency is a clean read of its admitted price.
    FLEX_CHECK_MSG(out.stats.accepted == frames &&
                       out.stats.completed == frames,
                   "trajectory schedule must admit every frame (accepted "
                       << out.stats.accepted << " of " << frames << ")");

    // Preview == admit, frame by frame: the side-effect-free preview must
    // equal the virtual service time admission actually charged (the
    // queue is empty, so latency == service estimate exactly).
    for (std::size_t k = 0; k < out.previews.size(); ++k) {
        const double charged =
            out.results[k].latency_ms - out.results[k].queue_wait_ms;
        FLEX_CHECK_MSG(std::abs(charged - out.previews[k]) <=
                           1e-9 * std::max(1.0, out.previews[k]),
                       "Preview diverged from the admitted price at "
                       "frame "
                           << k << ": preview " << out.previews[k]
                           << " vs charged " << charged);
    }
    return out;
}

void
PrintMachineLine(const char* kind, double pan, std::size_t frames,
                 const RunOutput& run)
{
    std::printf("[trajectory] kind=%s pan=%.3f frames=%zu accepted=%llu "
                "delta_frames=%llu full_frames=%llu breaks=%llu "
                "delta_hit_rate=%.6f mean_reuse=%.6f p50_ms=%.6f "
                "p99_ms=%.6f mean_ms=%.6f savings_ms=%.6f\n",
                kind, pan, frames,
                static_cast<unsigned long long>(run.stats.accepted),
                static_cast<unsigned long long>(run.session.delta_frames),
                static_cast<unsigned long long>(run.session.full_frames),
                static_cast<unsigned long long>(
                    run.session.coherence_breaks),
                run.session.DeltaHitRate(), run.session.mean_reuse,
                run.stats.p50_ms, run.stats.p99_ms, run.stats.mean_ms,
                run.session.delta_savings_ms);
}

}  // namespace

int
main(int argc, char** argv)
{
    ThreadsFromArgs(argc, argv);
    const std::int64_t frames_arg =
        IntFromArgs(argc, argv, "--frames", 150);
    if (frames_arg < 20 || frames_arg > 1000000) {
        Fatal("invalid --frames value " + std::to_string(frames_arg) +
              " (expected an integer in [20, 1000000])");
    }
    const auto frames = static_cast<std::size_t>(frames_arg);

    // Static hold -> slow pan -> fast pan -> a pan past the coherence
    // break threshold (reuse 0.1 < 0.25: every frame recomputes).
    const std::vector<PanPoint> sweep = {
        {0.00, "static hold"}, {0.02, "slow pan"},   {0.05, "walking pan"},
        {0.10, "brisk pan"},   {0.25, "fast pan"},   {0.50, "whip pan"},
        {0.90, "past break"},
    };
    const CoherenceModel model;  // the serving default, echoed below

    double total_wall_ms = 0.0;
    std::vector<RunOutput> runs;
    runs.reserve(sweep.size());
    for (const PanPoint& pan : sweep) {
        runs.push_back(RunTrajectory(frames, pan.step,
                                     /*use_session=*/true,
                                     /*teleport_at=*/0,
                                     /*teleport_jump=*/0.0));
        total_wall_ms += runs.back().wall_ms;
    }
    const RunOutput baseline =
        RunTrajectory(frames, /*pan_step=*/0.0,
                      /*use_session=*/false, /*teleport_at=*/0,
                      /*teleport_jump=*/0.0);
    total_wall_ms += baseline.wall_ms;
    const double full_est_ms = baseline.full_est_ms;

    // --- The static camera approaches prepared-frame replay cost. ----
    const RunOutput& held = runs.front();
    FLEX_CHECK(held.session.full_frames == 1 &&
               held.session.coherence_breaks == 0 &&
               held.session.delta_frames == frames - 1);
    const FrameCost static_delta_cost = held.results[1].cost;
    const double static_delta_est = EstimatedServiceMs(static_delta_cost);
    for (std::size_t k = 1; k < frames; ++k) {
        FLEX_CHECK_MSG(held.results[k].cost == static_delta_cost,
                       "static-camera frame " << k
                           << " diverged from the memoized delta shape");
        FLEX_CHECK_MSG(held.results[k].latency_ms <=
                           2.0 * static_delta_est,
                       "static-camera frame " << k << " cost "
                           << held.results[k].latency_ms
                           << " ms, above 2x its prepared replay "
                           << static_delta_est << " ms");
    }
    FLEX_CHECK_MSG(static_delta_est < 0.5 * full_est_ms,
                   "a fully-static delta frame must price well below "
                   "the full recompute ("
                       << static_delta_est << " vs " << full_est_ms
                       << " ms)");

    // --- Cost grows monotonically with pan speed. --------------------
    for (std::size_t i = 1; i < runs.size(); ++i) {
        FLEX_CHECK_MSG(
            runs[i].stats.mean_ms >= runs[i - 1].stats.mean_ms - 1e-9,
            "mean frame cost must not drop as the pan speeds up ("
                << runs[i - 1].stats.mean_ms << " -> "
                << runs[i].stats.mean_ms << " ms at step "
                << sweep[i].step << ")");
    }
    // Past the break threshold every frame recomputes: the curve
    // saturates at the baseline.
    const RunOutput& broken = runs.back();
    FLEX_CHECK(broken.session.delta_frames == 0 &&
               broken.session.coherence_breaks == frames - 1);

    // --- The delta path bends the latency percentiles. ---------------
    FLEX_CHECK_MSG(held.stats.p50_ms < baseline.stats.p50_ms &&
                       held.stats.p99_ms < baseline.stats.p99_ms,
                   "the static trajectory must bend p50/p99 below the "
                   "full-recompute baseline (p50 "
                       << held.stats.p50_ms << " vs "
                       << baseline.stats.p50_ms << ", p99 "
                       << held.stats.p99_ms << " vs "
                       << baseline.stats.p99_ms << ")");

    // --- Teleport drill: one break, one extra full frame, no extra
    // compiles. The smooth walk uses one delta shape; the jump's
    // overlap is zero, so that frame falls back to the scene's pinned
    // full frame (a frame hit, not a compile), and the trajectory
    // resumes on the already-compiled delta shape. ---------------------
    const RunOutput teleport =
        RunTrajectory(frames, /*pan_step=*/0.05,
                      /*use_session=*/true, /*teleport_at=*/frames / 2,
                      /*teleport_jump=*/10.0);
    total_wall_ms += teleport.wall_ms;
    FLEX_CHECK_MSG(teleport.session.coherence_breaks == 1 &&
                       teleport.session.full_frames == 2 &&
                       teleport.session.delta_frames == frames - 2,
                   "the teleport must cost exactly one coherence break "
                   "and one extra full frame (breaks "
                       << teleport.session.coherence_breaks
                       << ", full " << teleport.session.full_frames
                       << ")");
    FLEX_CHECK_MSG(teleport.stats.cache.delta_misses == 1 &&
                       teleport.stats.cache.plan_misses == 2,
                   "the teleport trajectory must compile exactly the "
                   "scene and one delta shape (plan compiles "
                       << teleport.stats.cache.plan_misses
                       << ", delta compiles "
                       << teleport.stats.cache.delta_misses << ")");

    // --- Report. ------------------------------------------------------
    std::printf("== Trajectory replay: %zu-frame camera paths over one "
                "scene (reuse grid 1/%zu, break below %.2f) ==\n",
                frames, model.reuse_quanta, model.break_threshold);
    Table table({"Pan [units/frame]", "Motion", "Delta frames", "Breaks",
                 "Hit rate [%]", "Mean reuse [%]", "p50 [ms]", "p99 [ms]",
                 "Saved [ms]"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunOutput& run = runs[i];
        table.AddRow({FormatDouble(sweep[i].step, 2), sweep[i].label,
                      std::to_string(run.session.delta_frames),
                      std::to_string(run.session.coherence_breaks),
                      FormatDouble(100.0 * run.session.DeltaHitRate(), 1),
                      FormatDouble(100.0 * run.session.mean_reuse, 1),
                      FormatDouble(run.stats.p50_ms, 3),
                      FormatDouble(run.stats.p99_ms, 3),
                      FormatDouble(run.session.delta_savings_ms, 1)});
    }
    table.AddRow({"-", "full recompute", "0", "0", "0.0", "0.0",
                  FormatDouble(baseline.stats.p50_ms, 3),
                  FormatDouble(baseline.stats.p99_ms, 3), "0.0"});
    std::printf("%s\n", table.ToString().c_str());
    std::printf("Static-camera delta frame: %.3f ms vs %.3f ms full "
                "recompute (%.1fx cheaper), within 2x of its prepared "
                "replay on every frame.\n",
                static_delta_est, full_est_ms,
                full_est_ms / static_delta_est);
    std::printf("Teleport drill: 1 coherence break, 1 extra full frame, "
                "0 extra plan compiles across %zu frames.\n\n",
                frames);

    for (std::size_t i = 0; i < runs.size(); ++i) {
        PrintMachineLine("sweep", sweep[i].step, frames, runs[i]);
    }
    PrintMachineLine("teleport", 0.05, frames, teleport);
    std::printf("[trajectory] kind=baseline pan=0.000 frames=%zu "
                "accepted=%llu delta_frames=0 full_frames=0 breaks=0 "
                "delta_hit_rate=0.000000 mean_reuse=0.000000 "
                "p50_ms=%.6f p99_ms=%.6f mean_ms=%.6f "
                "savings_ms=0.000000\n",
                frames,
                static_cast<unsigned long long>(baseline.stats.accepted),
                baseline.stats.p50_ms, baseline.stats.p99_ms,
                baseline.stats.mean_ms);

    std::fprintf(stderr,
                 "[trajectory] %zu runs x %zu frames: %.1f ms wall "
                 "(virtual-time results above are wall-clock "
                 "invariant)\n",
                 runs.size() + 2, frames, total_wall_ms);
    return 0;
}
