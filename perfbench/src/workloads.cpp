#include "workloads.h"

#include "paper.h"

namespace perfbench {

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "serve_hot") return MakeServeHot(seed);
    if (name == "fleet_mixed") return MakeFleetMixed(seed);
    if (name == "design_sweep") return MakeDesignSweep(seed);
    if (name == "tile_sim") return MakeTileSim(seed);
    return nullptr;
}

void
AddModelLatencies(const std::vector<double>& values, Report* report)
{
    report->Add("model_p50_ms", Quantile(values, 0.50), "ms");
    report->Add("model_p99_ms", Quantile(values, 0.99), "ms");
}

void
AddPaperErr(Report* report)
{
    report->Add("model_paper_err", PaperErr(ModelFig19Values()), "ln");
}

}  // namespace perfbench
