#include "paper.h"

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "obs/metrics.h"

namespace perfbench {

using namespace flexnerfer;

const std::vector<PaperReference>&
Fig19References()
{
    static const std::vector<PaperReference> references = [] {
        std::vector<PaperReference> refs = {
            {"NeuRex speedup", Backend::kNeuRex, Precision::kInt16, 0.0,
             false, 2.8},
            {"NeuRex energy", Backend::kNeuRex, Precision::kInt16, 0.0,
             true, 12.0},
        };
        struct Row {
            Precision precision;
            const char* tag;
            double speedup[2];
            double energy[2];
        };
        const Row rows[] = {
            {Precision::kInt16, "INT16", {8.2, 65.9}, {24.0, 194.0}},
            {Precision::kInt8, "INT8", {18.2, 138.3}, {47.0, 355.0}},
            {Precision::kInt4, "INT4", {32.9, 243.3}, {77.0, 570.0}},
        };
        const double prunes[] = {0.0, 0.9};
        for (const Row& row : rows) {
            for (int energy = 0; energy < 2; ++energy) {
                for (int p = 0; p < 2; ++p) {
                    PaperReference ref;
                    ref.label = std::string("FlexNeRFer ") + row.tag +
                                (energy ? " energy" : " speedup") +
                                (p ? " @90%" : " @0%");
                    ref.backend = Backend::kFlexNeRFer;
                    ref.precision = row.precision;
                    ref.prune = prunes[p];
                    ref.energy = energy == 1;
                    ref.paper = energy ? row.energy[p] : row.speedup[p];
                    refs.push_back(ref);
                }
            }
        }
        return refs;
    }();
    return references;
}

std::vector<double>
ModelFig19Values()
{
    SweepPoint gpu_point;
    gpu_point.backend = Backend::kGpu;
    const std::vector<FrameCost> gpu =
        RunAllModels(*MakeAccelerator(gpu_point), gpu_point.params);
    std::vector<double> values;
    for (const PaperReference& ref : Fig19References()) {
        SweepPoint point;
        point.backend = ref.backend;
        point.precision = ref.precision;
        point.params.weight_prune_ratio = ref.prune;
        const std::vector<FrameCost> costs =
            RunAllModels(*MakeAccelerator(point), point.params);
        values.push_back(ref.energy ? GeoMeanEnergyGain(gpu, costs)
                                    : GeoMeanSpeedup(gpu, costs));
    }
    return values;
}

double
PaperErr(const std::vector<double>& model_values)
{
    const std::vector<PaperReference>& refs = Fig19References();
    FLEX_CHECK(model_values.size() == refs.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        FLEX_CHECK(model_values[i] > 0.0);
        sum += std::fabs(std::log(model_values[i] / refs[i].paper));
    }
    return sum / static_cast<double>(refs.size());
}

}  // namespace perfbench
