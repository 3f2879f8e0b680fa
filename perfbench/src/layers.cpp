#include "layers.hpp"

#include <map>
#include <optional>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/frames.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "apps/downscaler/sac_source.hpp"
#include "gaspard/chain.hpp"
#include "gpu/sim_gpu.hpp"
#include "opt/search.hpp"
#include "sac/parser.hpp"
#include "sac/pipeline.hpp"
#include "sac/typecheck.hpp"
#include "sac_cuda/program.hpp"
#include "serve/allocator.hpp"
#include "stats.hpp"

namespace perfbench {

namespace apps = saclo::apps;
namespace gpu = saclo::gpu;

namespace {

constexpr int kReps = 3;  // repetitions of each cheap timing; the median is reported

template <typename Fn>
double median_ms(Tracer& tracer, const char* name, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(timed_ms(tracer, name, fn));
  return median(ms);
}

/// Median of `n` timed calls of a call too short to time alone, in
/// microseconds; the loop is one span.
template <typename Fn>
double median_call_us(Tracer& tracer, const char* name, int n, Fn&& fn) {
  Tracer::Scope scope(tracer, name, -1);
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }
  return median(us);
}

/// One probe frame loop split by what the device profiler measured.
/// Host-step intervals are left out: the host backend charges them from
/// the cost model, so their real cost stays in the remainder.
struct FrameSplit {
  double wall_ms = 0;
  double kernel_ms = 0;
  double copy_ms = 0;
  std::int64_t kernels = 0;
  std::map<std::string, double> kernel_us_by_name;
};

FrameSplit split_of(const gpu::Profiler& profiler, double wall_ms) {
  FrameSplit s;
  s.wall_ms = wall_ms;
  for (const auto& iv : profiler.intervals()) {
    switch (iv.kind) {
      case gpu::OpKind::Kernel:
        s.kernel_ms += iv.duration_us() / 1000.0;
        s.kernel_us_by_name[iv.name] += iv.duration_us();
        ++s.kernels;
        break;
      case gpu::OpKind::MemcpyHtoD:
      case gpu::OpKind::MemcpyDtoH:
        s.copy_ms += iv.duration_us() / 1000.0;
        break;
      case gpu::OpKind::Host:
        break;
    }
  }
  return s;
}

apps::SacDownscaler::Options sac_options(bool generic) {
  apps::SacDownscaler::Options o;
  o.generic = generic;
  o.backend = gpu::BackendKind::Host;
  o.async_streams = true;  // as the serving runtime builds its drivers
  return o;
}

apps::GaspardDownscaler::Options gaspard_options(int opt_level) {
  apps::GaspardDownscaler::Options o;
  o.backend = gpu::BackendKind::Host;
  o.async_streams = true;
  o.opt_level = opt_level;
  return o;
}

/// Runs `frames` executed RGB frames of a SaC driver on a fresh host
/// device with `workers` pool threads.
FrameSplit run_sac(apps::SacDownscaler& driver, unsigned workers, int frames, Tracer& tracer,
                   const char* span, saclo::IntArray& out) {
  gpu::VirtualGpu dev(gpu::gtx480(), workers, gpu::BackendKind::Host);
  const double ms = timed_ms(tracer, span, [&] {
    out = driver.run_cuda_chain_on(dev, frames, 3, frames).last_output;
  });
  return split_of(dev.profiler(), ms);
}

FrameSplit run_gaspard(apps::GaspardDownscaler& driver, unsigned workers, int frames,
                       Tracer& tracer, const char* span, saclo::IntArray& out) {
  gpu::VirtualGpu dev(gpu::gtx480(), workers, gpu::BackendKind::Host);
  const double ms =
      timed_ms(tracer, span, [&] { out = driver.run_on(dev, frames, frames).last_output; });
  return split_of(dev.profiler(), ms);
}

double synth_frame_ms(const apps::DownscalerConfig& cfg, Tracer& tracer) {
  int f = 0;
  return median_ms(tracer, "apps.synthetic_frame", kReps,
                   [&] { (void)apps::synthetic_frame(cfg.frame_shape(), f++); });
}

/// Gathered + scattered pattern elements per launch of each kernel.
std::map<std::string, double> pattern_elements(const saclo::gaspard::OpenClApplication& app) {
  std::map<std::string, double> out;
  for (const auto& k : app.kernels()) {
    const auto& task = app.model().tasks().at(k.task);
    double per_instance = 0;
    for (const auto& p : task.inputs) per_instance += static_cast<double>(p.pattern.elements());
    for (const auto& p : task.outputs) per_instance += static_cast<double>(p.pattern.elements());
    out[k.name] = per_instance * static_cast<double>(k.work_items);
  }
  return out;
}

/// Threads per launch of each tape (generator) kernel of a program.
void add_tape_threads(const saclo::sac_cuda::CudaProgram& prog,
                      std::map<std::string, double>& threads) {
  for (const auto& step : prog.steps()) {
    for (const auto& k : step.group.kernels) threads[k.name] = static_cast<double>(k.threads);
  }
}

double melem_per_s(const FrameSplit& s, const std::map<std::string, double>& elems, int frames) {
  double total = 0;
  double us = 0;
  for (const auto& [name, k_us] : s.kernel_us_by_name) {
    auto it = elems.find(name);
    if (it == elems.end()) continue;
    total += it->second * frames;
    us += k_us;
  }
  return us > 0 ? total / us : 0;
}

}  // namespace

void measure_layers(const apps::DownscalerConfig& cfg, unsigned workers, Tracer& tracer,
                    References& refs, RunResult& result) {
  Report& L = result.layers;
  auto check = [&](const saclo::IntArray& out, const apps::DownscalerConfig& c, int last) {
    if (!(out == refs.get(c, last))) result.correct = false;
  };
  refs.prepare(cfg, 0);

  // -- apps: input synthesis ---------------------------------------------------
  const double synth_ms = synth_frame_ms(cfg, tracer);
  L.add("apps.frame_synth_ms", synth_ms, "ms", "measured");

  // -- sac: front end on the generated downscaler source -------------------------
  const std::string source = apps::downscaler_sac_source(cfg);
  saclo::sac::Module module;
  L.add("sac.parse_ms",
        median_ms(tracer, "sac.parse", kReps, [&] { module = saclo::sac::parse(source); }), "ms",
        "measured");
  L.add("sac.typecheck_ms",
        median_ms(tracer, "sac.typecheck", kReps, [&] { saclo::sac::typecheck(module); }), "ms",
        "measured");
  using saclo::sac::ArgSpec;
  using saclo::sac::ElemType;
  saclo::sac::CompiledFunction hf;
  saclo::sac::CompiledFunction vf;
  L.add("sac.compile_ms", median_ms(tracer, "sac.compile", kReps, [&] {
          hf = saclo::sac::compile(module, "hfilter_nongeneric",
                                   {ArgSpec::array(ElemType::Int, cfg.frame_shape())});
          vf = saclo::sac::compile(module, "vfilter_nongeneric",
                                   {ArgSpec::array(ElemType::Int, cfg.mid_shape())});
        }),
        "ms", "measured");
  L.add("sac.wlf_folds", hf.stats.folds + vf.stats.folds, "count", "count");
  L.add("sac_cuda.plan_ms", median_ms(tracer, "sac_cuda.plan", kReps, [&] {
          (void)saclo::sac_cuda::CudaProgram::plan(hf);
          (void)saclo::sac_cuda::CudaProgram::plan(vf);
        }),
        "ms", "measured");

  // -- arrayol / opt / gaspard: model, optimizer, OpenCL chain build -------------
  saclo::aol::Model model("");
  L.add("arrayol.model_build_ms",
        median_ms(tracer, "arrayol.build_downscaler_model", kReps,
                  [&] { model = apps::build_downscaler_model(cfg); }),
        "ms", "measured");
  std::optional<saclo::opt::OptResult> o2;
  saclo::opt::SearchOptions search;
  search.level = 1;
  L.add("opt.optimize_o1_ms", median_ms(tracer, "opt.optimize", kReps, [&] {
          (void)saclo::opt::optimize(model, search);
        }),
        "ms", "measured");
  search.level = 2;
  L.add("opt.optimize_ms", median_ms(tracer, "opt.optimize", kReps, [&] {
          o2.emplace(saclo::opt::optimize(model, search));
        }),
        "ms", "measured");
  L.add("opt.rewrites_applied", static_cast<double>(o2->rewrites.size()), "count", "count");
  L.add("opt.predicted_o2_over_o0", o2->after.total_us() / o2->before.total_us(), "ratio",
        "model");
  L.add("gaspard.build_ms", median_ms(tracer, "gaspard.build", kReps, [&] {
          (void)saclo::gaspard::OpenClApplication::build(model);
        }),
        "ms", "measured");
  L.add("gaspard.build_o2_ms", median_ms(tracer, "gaspard.build", kReps, [&] {
          (void)saclo::gaspard::OpenClApplication::build(o2->model);
        }),
        "ms", "measured");

  // -- executed frames: kernels, copies and the unattributed remainder ------------
  saclo::IntArray out;
  apps::SacDownscaler sacng(cfg, sac_options(false));
  std::map<std::string, double> tape_threads;
  add_tape_threads(sacng.h_program(), tape_threads);
  add_tape_threads(sacng.v_program(), tape_threads);
  const FrameSplit ng = run_sac(sacng, workers, 1, tracer, "apps.run_cuda_chain_on", out);
  check(out, cfg, 0);
  L.add("apps.unattributed_ms_per_frame", ng.wall_ms - ng.kernel_ms - ng.copy_ms - synth_ms, "ms",
        "measured");
  L.add("sac_cuda.kernels_per_frame", static_cast<double>(ng.kernels), "count", "count");
  L.add("sac_cuda.tape_mthreads_per_s", melem_per_s(ng, tape_threads, 1), "Mthreads/s",
        "measured");

  // The same kernels on one and on four pool threads.
  const FrameSplit w1 = run_sac(sacng, 1, 1, tracer, "apps.run_cuda_chain_on", out);
  check(out, cfg, 0);
  const FrameSplit w4 = run_sac(sacng, 4, 1, tracer, "apps.run_cuda_chain_on", out);
  check(out, cfg, 0);
  L.add("gpu.kernel_scaling_w4_over_w1", w4.kernel_ms / w1.kernel_ms, "ratio", "measured");

  FrameSplit gs[2];
  for (int i = 0; i < 2; ++i) {
    const int level = i == 0 ? 0 : 2;
    apps::GaspardDownscaler driver(cfg, gaspard_options(level));
    gs[i] = run_gaspard(driver, workers, 1, tracer, "apps.run_on", out);
    check(out, cfg, 0);
    const std::string sfx = level == 0 ? "" : "_o2";
    L.add("gaspard.kernels_per_frame" + sfx, static_cast<double>(gs[i].kernels), "count",
          "count");
    L.add("gaspard.kernel_melem_per_s" + sfx,
          melem_per_s(gs[i], pattern_elements(driver.application()), 1), "Melem/s", "measured");
  }
  L.add("apps.unattributed_ms_per_frame_gaspard_o0",
        gs[0].wall_ms - gs[0].kernel_ms - gs[0].copy_ms - synth_ms, "ms", "measured");
  L.add("opt.measured_o2_over_o0", gs[1].wall_ms / gs[0].wall_ms, "ratio", "measured");

  // The generic route's host step at the largest geometry it serves and
  // at twice that: the per-pixel cost should not grow with the frame.
  for (const auto& [h, w, name] : {std::tuple{90, 128, "sac_cuda.host_step_us_per_px"},
                                   std::tuple{180, 256, "sac_cuda.host_step_us_per_px_180x256"}}) {
    const apps::DownscalerConfig g = geometry(h, w);
    refs.prepare(g, 0);
    const double g_synth = synth_frame_ms(g, tracer);
    apps::SacDownscaler sacg(g, sac_options(true));
    const FrameSplit s = run_sac(sacg, workers, 1, tracer, "apps.run_cuda_chain_on", out);
    check(out, g, 0);
    L.add(name, (s.wall_ms - s.kernel_ms - s.copy_ms - g_synth) * 1000.0 /
                    static_cast<double>(g.frame_shape().elements()),
          "us/px", "measured");
  }

  // -- gpu: executed copies, launch overhead, allocator hit path ------------------
  {
    const apps::DownscalerConfig hd = geometry(1080, 1920);
    const std::int64_t bytes = hd.frame_shape().elements() * 4;  // one int32 channel
    gpu::VirtualGpu dev(gpu::gtx480(), workers, gpu::BackendKind::Host);
    std::vector<std::byte> host(static_cast<std::size_t>(bytes), std::byte{7});
    const gpu::BufferHandle buf = dev.alloc(bytes);
    std::vector<double> h2d;
    std::vector<double> d2h;
    for (int i = 0; i < 9; ++i) {
      h2d.push_back(timed_ms(tracer, "gpu.copy_h2d",
                             [&] { dev.copy_h2d(buf, host, "h2d", true); }));
      d2h.push_back(timed_ms(tracer, "gpu.copy_d2h",
                             [&] { dev.copy_d2h(host, buf, "d2h", true); }));
    }
    L.add("gpu.h2d_gbs", static_cast<double>(bytes) / median(h2d) / 1e6, "GB/s", "measured");
    L.add("gpu.d2h_gbs", static_cast<double>(bytes) / median(d2h) / 1e6, "GB/s", "measured");
    dev.free(buf);

    gpu::KernelLaunch one;
    one.name = "noop";
    one.threads = 1;
    one.range_body = [](std::int64_t, std::int64_t) {};
    L.add("gpu.launch_overhead_us",
          median_call_us(tracer, "gpu.launch", 2000, [&] { dev.launch(one, true); }), "us",
          "measured");

    saclo::serve::CachingDeviceAllocator cache(dev.memory());
    L.add("gpu.alloc_us", median_call_us(tracer, "serve.CachingDeviceAllocator", 2000, [&] {
            cache.free(cache.allocate(bytes));
          }),
          "us", "measured");
  }
}

}  // namespace perfbench
