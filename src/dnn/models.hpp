// Model zoo: the four DNNs of Table I.
//
// Two views of each model are provided:
//   * full-scale ModelSpec — exact layer shapes at the paper's native input
//     resolution, used by the accelerator performance model (weights are
//     never needed there). Model 4's parameter count matches the paper's
//     38,951,745 exactly (it is the Koch et al. Siamese network); models 1-3
//     are custom CNNs reconstructed to within < 0.2% of the reported counts
//     (tests/test_models.cpp checks both).
//   * reduced trainable Network — same topology at reduced geometry/width so
//     functional accuracy runs train in seconds on a CPU.
#pragma once

#include <vector>

#include "dnn/datasets.hpp"
#include "dnn/layer_spec.hpp"
#include "dnn/network.hpp"
#include "numerics/rng.hpp"

namespace xl::dnn {

/// Table I row 1: LeNet5-style, 2 CONV + 2 FC, Sign-MNIST (28x28x1, 24 cls).
[[nodiscard]] ModelSpec lenet5_spec();
/// Table I row 2: custom CNN, 4 CONV + 2 FC, CIFAR-10 (32x32x3, 10 cls).
[[nodiscard]] ModelSpec cnn_cifar10_spec();
/// Table I row 3: custom CNN, 7 CONV + 2 FC, STL-10 (96x96x3, 10 cls).
[[nodiscard]] ModelSpec cnn_stl10_spec();
/// Table I row 4: Siamese one-shot CNN (Koch et al.), Omniglot (105x105x1).
[[nodiscard]] ModelSpec siamese_omniglot_spec();

/// All four rows of Table I in order.
[[nodiscard]] std::vector<ModelSpec> table1_models();

/// Paper-reported parameter counts (Table I), indexable by model number 1-4.
[[nodiscard]] std::size_t paper_parameter_count(int model_no);

// --- trainable (reduced) networks for the Fig. 5 accuracy sweep -------------

/// Model 1 trainable at native scale (it is already small).
[[nodiscard]] Network build_lenet5(xl::numerics::Rng& rng, std::size_t classes = 24);
/// Model 2 reduced: 16x16x3 input, half width.
[[nodiscard]] Network build_reduced_cifar_cnn(xl::numerics::Rng& rng,
                                              std::size_t classes = 10);
/// Model 3 reduced: 24x24x3 input, 7 conv layers at reduced width.
[[nodiscard]] Network build_reduced_stl_cnn(xl::numerics::Rng& rng,
                                            std::size_t classes = 10);
/// Model 4 reduced Siamese embedding branch: 28x28x1 -> 64-d embedding.
[[nodiscard]] Network build_reduced_siamese_branch(xl::numerics::Rng& rng);

/// Input shape (without batch dim) of each reduced trainable model, 1-4.
[[nodiscard]] Shape reduced_input_shape(int model_no);

/// Table I proxy MLP for functional-datapath studies (the CLI's --effects
/// path and bench_fig4): Flatten -> Dense(144, 64) -> ReLU -> Dense(64, 24),
/// trained on the 12x12 SignMNIST-like task of table1_proxy_task(). One
/// shared definition so CLI and bench accuracies stay comparable.
[[nodiscard]] Network build_table1_proxy_mlp(xl::numerics::Rng& rng);

/// The reduced SignMNIST-like task the proxy MLP trains on (12x12x1).
[[nodiscard]] SyntheticSpec table1_proxy_task();

/// A trained proxy MLP with its held-out test set.
struct Table1ProxyMlp {
  Network net;
  Dataset test;
  double float_accuracy = 0.0;
};

/// Build and train the proxy MLP with the one shared recipe (768 train /
/// 128 test samples, seed 21, batch 32, lr 5e-3) so CLI and bench
/// accuracies stay comparable. Only the epoch count is a knob.
[[nodiscard]] Table1ProxyMlp train_table1_proxy_mlp(std::size_t epochs = 20);

}  // namespace xl::dnn
