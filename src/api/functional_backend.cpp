#include "api/functional_backend.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/accelerator.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/datasets.hpp"
#include "dnn/network.hpp"

namespace xl::api {

BackendCapabilities FunctionalBackend::capabilities() const {
  BackendCapabilities caps;
  caps.analytical = true;  // Analytical metrics ride along when a model is given.
  caps.functional = true;
  caps.needs_network = true;
  return caps;
}

EvalResult FunctionalBackend::evaluate(const EvalRequest& request) {
  request.config.validate();
  if (request.network == nullptr || request.dataset == nullptr) {
    throw std::invalid_argument(
        "FunctionalBackend: request needs a network and a dataset");
  }
  if (request.dataset->size() == 0) {
    throw std::invalid_argument("FunctionalBackend: empty dataset");
  }

  EvalResult result;
  result.backend = name();

  // Analytical metrics for the declared workload shape, if one was given.
  if (!request.model.layers.empty()) {
    const core::CrossLightAccelerator accelerator(request.config.architecture);
    result.report = accelerator.evaluate(request.model);
    result.has_report = true;
  }

  core::PhotonicInferenceEngine engine(*request.network, request.config.vdp);
  engine.set_eval_batch_size(request.config.eval_batch_size);
  engine.set_track_layer_error(request.config.track_layer_error);
  const std::size_t samples =
      std::min(request.config.functional_samples, request.dataset->size());
  result.functional.accuracy = engine.evaluate_accuracy(*request.dataset, samples);
  result.functional.samples = samples;
  result.functional.effects = request.config.vdp.effects.summary();
  result.functional.stats = engine.stats();
  result.functional.populated = true;
  return result;
}

}  // namespace xl::api
