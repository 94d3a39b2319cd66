#include <gtest/gtest.h>

#include "common/check.h"
#include "nn/builders.h"
#include "nn/model.h"

namespace hdnn {
namespace {

TEST(ConvLayerTest, OutputGeometrySamePad) {
  ConvLayer l;
  l.name = "l";
  l.in_channels = 3;
  l.out_channels = 8;
  const FmapShape out = l.ConvOutput(FmapShape{3, 32, 32});
  EXPECT_EQ(out.channels, 8);
  EXPECT_EQ(out.height, 32);
  EXPECT_EQ(out.width, 32);
}

TEST(ConvLayerTest, OutputGeometryStrideNoPad) {
  ConvLayer l;
  l.name = "l";
  l.in_channels = 3;
  l.out_channels = 8;
  l.kernel_h = l.kernel_w = 11;
  l.stride = 4;
  l.pad = 0;
  const FmapShape out = l.ConvOutput(FmapShape{3, 227, 227});
  EXPECT_EQ(out.height, 55);
  EXPECT_EQ(out.width, 55);
}

TEST(ConvLayerTest, PoolHalvesOutput) {
  ConvLayer l;
  l.name = "l";
  l.in_channels = 4;
  l.out_channels = 4;
  l.pool = 2;
  const FmapShape out = l.Output(FmapShape{4, 16, 16});
  EXPECT_EQ(out.height, 8);
  EXPECT_EQ(out.width, 8);
}

TEST(ConvLayerTest, PoolMustTile) {
  ConvLayer l;
  l.name = "l";
  l.in_channels = 4;
  l.out_channels = 4;
  l.pool = 3;
  EXPECT_THROW(l.Output(FmapShape{4, 16, 16}), InvalidArgument);
}

TEST(ConvLayerTest, PadWiderThanKernelRejected) {
  ConvLayer l;
  l.name = "l";
  l.in_channels = 4;
  l.out_channels = 4;
  l.pad = l.kernel_h + 1;
  EXPECT_THROW(l.Validate(), InvalidArgument);
  l.pad = l.kernel_h;  // pad == kernel stays legal
  l.Validate();
  l.kernel_w = 1;  // the narrower kernel side bounds the pad
  EXPECT_THROW(l.Validate(), InvalidArgument);
}

TEST(ConvLayerTest, MacCount) {
  ConvLayer l;
  l.name = "l";
  l.in_channels = 2;
  l.out_channels = 4;
  l.pad = 1;
  // 4 * 2 * 3 * 3 * 8 * 8 = 4608 MACs
  EXPECT_EQ(l.Macs(FmapShape{2, 8, 8}), 4608);
  EXPECT_EQ(l.Ops(FmapShape{2, 8, 8}), 9216);
}

TEST(ModelTest, AppendValidatesChannelChain) {
  Model m("m", FmapShape{3, 8, 8});
  ConvLayer l;
  l.name = "bad";
  l.in_channels = 4;  // mismatch with 3
  l.out_channels = 8;
  EXPECT_THROW(m.Append(l), InvalidArgument);
}

TEST(ModelTest, ShapeInferenceChains) {
  const Model m = BuildTinyCnn();
  EXPECT_EQ(m.InputOf(0).height, 32);
  EXPECT_EQ(m.OutputOf(0).height, 16);  // pool2
  EXPECT_EQ(m.OutputOf(2).channels, 64);
  EXPECT_EQ(m.OutputOf(2).height, 4);
}

TEST(ModelTest, FcFlattensInput) {
  const Model m = BuildTinyCnn();
  const int fc = m.num_layers() - 1;
  EXPECT_TRUE(m.layer(fc).is_fc);
  EXPECT_EQ(m.InputOf(fc).channels, 64 * 4 * 4);
  EXPECT_EQ(m.InputOf(fc).height, 1);
  EXPECT_EQ(m.OutputShape().channels, 10);
}

TEST(ModelTest, Vgg16Structure) {
  const Model m = BuildVgg16();
  EXPECT_EQ(m.num_layers(), 16);  // 13 conv + 3 fc
  EXPECT_EQ(m.OutputShape().channels, 1000);
  // conv5_3 output after pool: 512 x 7 x 7
  EXPECT_EQ(m.OutputOf(12).channels, 512);
  EXPECT_EQ(m.OutputOf(12).height, 7);
}

TEST(ModelTest, Vgg16OpCountMatchesLiterature) {
  // VGG16 is ~30.9 GOP end to end (~30.7 GOP conv-only), the number used
  // for all Table 4 GOPS calculations.
  const Model full = BuildVgg16();
  const Model conv = BuildVgg16ConvOnly();
  EXPECT_NEAR(static_cast<double>(full.TotalOps()), 30.94e9, 0.1e9);
  EXPECT_NEAR(static_cast<double>(conv.TotalOps()), 30.69e9, 0.1e9);
}

TEST(ModelTest, AlexNetStyleBuilds) {
  const Model m = BuildAlexNetStyle();
  EXPECT_GT(m.TotalOps(), 0);
  EXPECT_EQ(m.layer(0).kernel_h, 11);
  EXPECT_EQ(m.layer(1).kernel_h, 5);
  EXPECT_EQ(m.OutputShape().channels, 256);
}

TEST(ModelTest, SummaryMentionsEveryLayer) {
  const Model m = BuildTinyCnn();
  const std::string s = m.Summary();
  for (int i = 0; i < m.num_layers(); ++i) {
    EXPECT_NE(s.find(m.layer(i).name), std::string::npos) << m.layer(i).name;
  }
}

// --- graph IR: explicit input edges + residual edges ---

TEST(ModelTest, DuplicateLayerNamesRejected) {
  Model m("m", FmapShape{3, 8, 8});
  ConvLayer l;
  l.name = "c";
  l.in_channels = 3;
  l.out_channels = 3;
  m.Append(l);
  EXPECT_THROW(m.Append(l), InvalidArgument);
}

TEST(ModelTest, FromEdgeBranchesFromNamedLayer) {
  Model m("m", FmapShape{3, 8, 8});
  ConvLayer stem;
  stem.name = "stem";
  stem.in_channels = 3;
  stem.out_channels = 8;
  m.Append(stem);
  ConvLayer a;
  a.name = "a";
  a.in_channels = 8;
  a.out_channels = 16;
  m.Append(a);
  ConvLayer branch;  // reads stem, not a
  branch.name = "branch";
  branch.in_channels = 8;
  branch.out_channels = 4;
  branch.from = "stem";
  m.Append(branch);
  EXPECT_EQ(m.input_index(0), -1);
  EXPECT_EQ(m.input_index(1), 0);
  EXPECT_EQ(m.input_index(2), 0);
  EXPECT_EQ(m.InputOf(2).channels, 8);
  EXPECT_EQ(m.OutputOf(2).channels, 4);
}

TEST(ModelTest, FromEdgeUnknownNameRejected) {
  Model m("m", FmapShape{3, 8, 8});
  ConvLayer l;
  l.name = "c";
  l.in_channels = 3;
  l.out_channels = 3;
  l.from = "nope";
  EXPECT_THROW(m.Append(l), InvalidArgument);
}

TEST(ModelTest, ResidualEdgeValidatesShape) {
  Model m("m", FmapShape{4, 8, 8});
  ConvLayer a;
  a.name = "a";
  a.in_channels = 4;
  a.out_channels = 8;
  m.Append(a);
  ConvLayer bad;  // 16 channels cannot add an 8-channel skip
  bad.name = "bad";
  bad.in_channels = 8;
  bad.out_channels = 16;
  bad.add = "a";
  EXPECT_THROW(m.Append(bad), InvalidArgument);
  ConvLayer good;
  good.name = "good";
  good.in_channels = 8;
  good.out_channels = 8;
  good.relu = true;
  good.add = "a";
  m.Append(good);
  EXPECT_EQ(m.residual_index(1), 0);
  EXPECT_TRUE(m.layer(1).has_residual());
}

TEST(ModelTest, ResidualIntoPooledLayerRejected) {
  Model m("m", FmapShape{4, 8, 8});
  ConvLayer a;
  a.name = "a";
  a.in_channels = 4;
  a.out_channels = 8;
  m.Append(a);
  ConvLayer pooled;
  pooled.name = "pooled";
  pooled.in_channels = 8;
  pooled.out_channels = 8;
  pooled.pool = 2;
  pooled.add = "a";
  try {
    m.Append(pooled);
    FAIL() << "pooled residual layer must be rejected";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("pooled"), std::string::npos)
        << e.what();
  }
}

TEST(ConvLayerTest, FcCanonicalFormValidated) {
  ConvLayer fc;
  fc.name = "fc";
  fc.in_channels = 64;
  fc.out_channels = 10;
  fc.is_fc = true;
  fc.kernel_h = fc.kernel_w = 1;
  fc.stride = 1;
  fc.pad = 0;
  fc.pool = 1;
  fc.Validate();  // canonical 1x1-on-1x1 form is fine

  ConvLayer bad_kernel = fc;
  bad_kernel.kernel_h = bad_kernel.kernel_w = 3;
  EXPECT_THROW(bad_kernel.Validate(), InvalidArgument);
  ConvLayer bad_stride = fc;
  bad_stride.stride = 2;
  EXPECT_THROW(bad_stride.Validate(), InvalidArgument);
  ConvLayer bad_pad = fc;
  bad_pad.pad = 1;
  EXPECT_THROW(bad_pad.Validate(), InvalidArgument);
  ConvLayer bad_pool = fc;
  bad_pool.pool = 2;
  EXPECT_THROW(bad_pool.Validate(), InvalidArgument);
  ConvLayer bad_res = fc;
  bad_res.add = "skip";
  EXPECT_THROW(bad_res.Validate(), InvalidArgument);
  // FC layers always consume the chain-previous layer: a from= edge could
  // not round-trip through the text writer, so it is rejected outright.
  ConvLayer bad_from = fc;
  bad_from.from = "earlier";
  EXPECT_THROW(bad_from.Validate(), InvalidArgument);
}

TEST(ModelTest, ResNet18StructureAndOps) {
  const Model m = BuildResNet18();
  // stem + 8 basic blocks (2 convs each) + 3 projections + fc.
  EXPECT_EQ(m.num_layers(), 21);
  EXPECT_EQ(m.OutputShape().channels, 1000);
  // Real ResNet-18 is ~3.6 GOP; our variant (projection at 3 transitions)
  // lands just above it.
  EXPECT_NEAR(static_cast<double>(m.TotalOps()), 3.68e9, 0.15e9);
  // Every block's second conv carries a residual edge.
  int residual_layers = 0;
  for (int i = 0; i < m.num_layers(); ++i) {
    if (m.layer(i).has_residual()) ++residual_layers;
  }
  EXPECT_EQ(residual_layers, 8);
  // The first downsampling block: bodya and proj both branch from the
  // previous block output, and bodyb adds the projection.
  const int proj = m.IndexOf("conv3_1p");
  const int bodya = m.IndexOf("conv3_1a");
  const int bodyb = m.IndexOf("conv3_1b");
  ASSERT_GE(proj, 0);
  EXPECT_EQ(m.input_index(proj), m.input_index(bodya));
  EXPECT_EQ(m.residual_index(bodyb), proj);
  EXPECT_FALSE(m.layer(proj).relu) << "projection feeds the add un-rectified";
}

TEST(ModelTest, TinyResidualBlockShapes) {
  const Model m = BuildTinyResidualBlock();
  EXPECT_EQ(m.num_layers(), 4);
  EXPECT_EQ(m.residual_index(m.IndexOf("bodyb")), m.IndexOf("proj"));
  EXPECT_EQ(m.OutputShape(), (FmapShape{32, 7, 7}));
}

TEST(ModelTest, SingleConvBuilderSamePadDefault) {
  const Model m = BuildSingleConv(3, 8, 16, 16, 5);
  EXPECT_EQ(m.layer(0).pad, 2);
  EXPECT_EQ(m.OutputShape().height, 16);
}

TEST(ModelTest, EmptyModelOutputThrows) {
  Model m("empty", FmapShape{1, 1, 1});
  EXPECT_THROW(m.OutputShape(), InvalidArgument);
}

}  // namespace
}  // namespace hdnn
