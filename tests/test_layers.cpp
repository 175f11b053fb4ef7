// Forward-pass correctness of every layer against hand-computed references.
#include <gtest/gtest.h>

#include <cmath>

#include "dnn/activations.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/dense.hpp"
#include "dnn/network.hpp"
#include "dnn/pooling.hpp"
#include "dnn/reshape.hpp"
#include "numerics/rng.hpp"

namespace xl::dnn {
namespace {

using xl::numerics::Rng;

TEST(Dense, ForwardMatchesManual) {
  Rng rng(1);
  Dense layer(2, 3, rng);
  layer.weights().fill(0.0F);
  layer.weights().at2(0, 0) = 1.0F;  // y0 = x0
  layer.weights().at2(1, 1) = 2.0F;  // y1 = 2 x1
  layer.weights().at2(2, 0) = 1.0F;  // y2 = x0 + x1 + 1
  layer.weights().at2(2, 1) = 1.0F;
  layer.bias()[2] = 1.0F;

  Tensor x({1, 2});
  x.at2(0, 0) = 3.0F;
  x.at2(0, 1) = 4.0F;
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 3.0F);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 8.0F);
  EXPECT_FLOAT_EQ(y.at2(0, 2), 8.0F);
}

TEST(Dense, ShapeValidation) {
  Rng rng(1);
  Dense layer(4, 2, rng);
  EXPECT_THROW((void)layer.forward(Tensor({1, 3}), false), std::invalid_argument);
  EXPECT_EQ(layer.output_shape({5, 4}), (Shape{5, 2}));
  EXPECT_THROW((void)layer.output_shape({5, 3}), std::invalid_argument);
  EXPECT_EQ(layer.parameter_count(), 4u * 2u + 2u);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(1);
  Conv2d conv(Conv2dConfig{1, 1, 1, 1, 0}, rng);
  conv.weights().fill(1.0F);
  conv.bias().fill(0.0F);
  Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  const Tensor y = conv.forward(x, false);
  for (std::size_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, SumKernelMatchesManual) {
  Rng rng(1);
  Conv2d conv(Conv2dConfig{1, 1, 2, 1, 0}, rng);
  conv.weights().fill(1.0F);
  conv.bias()[0] = 0.5F;
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0F;
  x[1] = 2.0F;
  x[2] = 3.0F;
  x[3] = 4.0F;
  const Tensor y = conv.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10.5F);
}

TEST(Conv2d, PaddingKeepsSpatialSize) {
  Rng rng(1);
  Conv2d conv(Conv2dConfig{3, 8, 3, 1, 1}, rng);
  EXPECT_EQ(conv.output_shape({2, 3, 16, 16}), (Shape{2, 8, 16, 16}));
}

TEST(Conv2d, StrideReducesSize) {
  Rng rng(1);
  Conv2d conv(Conv2dConfig{1, 1, 3, 2, 0}, rng);
  EXPECT_EQ(conv.output_shape({1, 1, 9, 9}), (Shape{1, 1, 4, 4}));
}

TEST(Conv2d, MultiChannelAccumulates) {
  Rng rng(1);
  Conv2d conv(Conv2dConfig{2, 1, 1, 1, 0}, rng);
  conv.weights().fill(1.0F);
  conv.bias().fill(0.0F);
  Tensor x({1, 2, 1, 1});
  x[0] = 3.0F;
  x[1] = 4.0F;
  EXPECT_FLOAT_EQ(conv.forward(x, false)[0], 7.0F);
}

TEST(Conv2d, InputSmallerThanKernelThrows) {
  Rng rng(1);
  Conv2d conv(Conv2dConfig{1, 1, 5, 1, 0}, rng);
  EXPECT_THROW((void)conv.output_shape({1, 1, 3, 3}), std::invalid_argument);
}

TEST(MaxPool, SelectsWindowMaximum) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0F;
  x[1] = 5.0F;
  x[2] = 3.0F;
  x[3] = 2.0F;
  const Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0F);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2});
  x[1] = 5.0F;
  (void)pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, 2.0F);
  const Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0F);
  EXPECT_FLOAT_EQ(gx[1], 2.0F);
}

TEST(AvgPool, AveragesWindow) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0F;
  x[1] = 2.0F;
  x[2] = 3.0F;
  x[3] = 6.0F;
  EXPECT_FLOAT_EQ(pool.forward(x, false)[0], 3.0F);
}

TEST(Pooling, OutputShapes) {
  MaxPool2d pool(2);
  EXPECT_EQ(pool.output_shape({1, 4, 8, 8}), (Shape{1, 4, 4, 4}));
  EXPECT_THROW((void)pool.output_shape({1, 4}), std::invalid_argument);
  EXPECT_THROW((void)pool.output_shape({1, 1, 1, 1}), std::invalid_argument);
}

TEST(ReLULayer, ClampsNegatives) {
  ReLU relu;
  Tensor x({4});
  x[0] = -1.0F;
  x[1] = 2.0F;
  x[2] = 0.0F;
  x[3] = -0.5F;
  const Tensor y = relu.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0F);
  EXPECT_FLOAT_EQ(y[1], 2.0F);
  EXPECT_FLOAT_EQ(y[3], 0.0F);
}

TEST(SigmoidLayer, KnownValues) {
  Sigmoid sig;
  Tensor x({2});
  x[0] = 0.0F;
  x[1] = 100.0F;
  const Tensor y = sig.forward(x, false);
  EXPECT_NEAR(y[0], 0.5F, 1e-6);
  EXPECT_NEAR(y[1], 1.0F, 1e-6);
}

TEST(TanhLayer, KnownValues) {
  Tanh t;
  Tensor x({1});
  x[0] = 0.0F;
  EXPECT_FLOAT_EQ(t.forward(x, false)[0], 0.0F);
}

TEST(DropoutLayer, IdentityDuringInference) {
  Dropout drop(0.5, 42);
  Tensor x({100}, 1.0F);
  const Tensor y = drop.forward(x, false);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 1.0F);
}

TEST(DropoutLayer, TrainingDropsAndRescales) {
  Dropout drop(0.5, 42);
  Tensor x({10000}, 1.0F);
  const Tensor y = drop.forward(x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0F) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 2.0F, 1e-6);  // Inverted dropout scaling.
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.05);
}

TEST(DropoutLayer, RejectsBadRate) {
  EXPECT_THROW(Dropout(1.0, 1), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1, 1), std::invalid_argument);
}

TEST(FlattenLayer, RoundTrip) {
  Flatten flat;
  Tensor x({2, 3, 4, 5});
  const Tensor y = flat.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), (Shape{2, 3, 4, 5}));
}

// Layers hold a pointer to their network's quantization spec: a moved
// network's layers must follow the destination's spec, not the moved-from
// object's.
Network small_mlp() {
  Rng rng(9);
  Network net;
  net.emplace<Dense>(6, 5, rng);
  net.emplace<ReLU>();
  net.emplace<Dense>(5, 3, rng);
  return net;
}

bool same_values(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

TEST(NetworkMove, LayersFollowTheDestinationQuantization) {
  Tensor x({2, 6});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = 0.1F * static_cast<float>(i) - 0.5F;
  const QuantizationSpec two_bit{2, 0};

  Network float_net = small_mlp();
  const Tensor want_float = float_net.forward(x);
  Network source = small_mlp();
  source.set_quantization(two_bit);
  const Tensor want_qat = source.forward(x);
  ASSERT_FALSE(same_values(want_float, want_qat));

  Network moved(std::move(source));
  EXPECT_TRUE(same_values(moved.forward(x), want_qat));
  moved.set_quantization({});
  EXPECT_TRUE(same_values(moved.forward(x), want_float));

  Network assigned = small_mlp();
  assigned = std::move(moved);
  EXPECT_TRUE(same_values(assigned.forward(x), want_float));
  assigned.set_quantization(two_bit);
  EXPECT_TRUE(same_values(assigned.forward(x), want_qat));
}

}  // namespace
}  // namespace xl::dnn
