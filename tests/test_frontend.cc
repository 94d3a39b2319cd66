#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "frontend/parser.h"
#include "nn/builders.h"
#include "runtime/design_flow.h"

namespace hdnn {
namespace {

TEST(ModelParserTest, ParsesMinimalModel) {
  const Model m = ParseModelText(
      "model tiny\n"
      "input 3 32 32\n"
      "conv name=c1 out=16 k=3 s=1 p=1 relu=1 pool=2\n"
      "fc name=f out=10\n");
  EXPECT_EQ(m.name(), "tiny");
  EXPECT_EQ(m.num_layers(), 2);
  EXPECT_EQ(m.layer(0).out_channels, 16);
  EXPECT_TRUE(m.layer(0).relu);
  EXPECT_EQ(m.layer(0).pool, 2);
  EXPECT_TRUE(m.layer(1).is_fc);
  EXPECT_EQ(m.OutputShape().channels, 10);
}

TEST(ModelParserTest, DefaultsKernelStridePad) {
  const Model m = ParseModelText(
      "model d\ninput 3 16 16\nconv out=8\n");
  EXPECT_EQ(m.layer(0).kernel_h, 3);
  EXPECT_EQ(m.layer(0).stride, 1);
  EXPECT_EQ(m.layer(0).pad, 1);  // same-pad
}

TEST(ModelParserTest, SamePadForLargerKernels) {
  const Model m = ParseModelText(
      "model d\ninput 3 16 16\nconv out=8 k=5\n");
  EXPECT_EQ(m.layer(0).pad, 2);
}

TEST(ModelParserTest, CommentsAndBlanksIgnored)
{
  const Model m = ParseModelText(
      "# header comment\n"
      "model c\n"
      "\n"
      "input 3 8 8\n"
      "conv out=4  # trailing comment\n");
  EXPECT_EQ(m.num_layers(), 1);
}

TEST(ModelParserTest, RoundTripsThroughWriter) {
  for (const Model& m : {BuildVgg16(), BuildTinyCnn(), BuildAlexNetStyle(),
                         BuildResNet18(), BuildTinyResidualBlock()}) {
    const std::string text = WriteModelText(m);
    const Model back = ParseModelText(text);
    ASSERT_EQ(back.num_layers(), m.num_layers()) << m.name();
    for (int i = 0; i < m.num_layers(); ++i) {
      EXPECT_EQ(back.layer(i), m.layer(i)) << m.name() << " layer " << i;
      EXPECT_EQ(back.input_index(i), m.input_index(i)) << m.name() << " " << i;
      EXPECT_EQ(back.residual_index(i), m.residual_index(i))
          << m.name() << " " << i;
    }
    EXPECT_EQ(back.input(), m.input());
  }
}

TEST(ModelParserTest, ParsesResidualGraph) {
  // A skip across a stride-2 projection — the canonical downsampling block.
  const Model m = ParseModelText(
      "model block\n"
      "input 8 8 8\n"
      "conv name=stem out=8\n"
      "conv name=a out=16 s=2\n"
      "conv name=p out=16 k=1 s=2 p=0 from=stem\n"
      "conv name=b out=16 relu=1 from=a add=p\n");
  EXPECT_EQ(m.num_layers(), 4);
  EXPECT_EQ(m.input_index(2), 0);
  EXPECT_EQ(m.input_index(3), 1);
  EXPECT_EQ(m.residual_index(3), 2);
  EXPECT_EQ(m.OutputShape(), (FmapShape{16, 4, 4}));
}

TEST(ModelParserTest, DuplicateLayerNameReportsLine) {
  try {
    ParseModelText(
        "model x\ninput 3 8 8\nconv name=c out=4\nconv name=c out=4\n");
    FAIL() << "duplicate name must be rejected";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
  }
}

TEST(ModelParserTest, DuplicateFcNameReportsLine) {
  try {
    ParseModelText(
        "model x\ninput 3 8 8\nconv name=c out=4\nfc name=c out=10\n");
    FAIL() << "duplicate fc name must be rejected";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(ModelParserTest, FcBadAttributeValueReportsLineOnce) {
  try {
    ParseModelText("model x\ninput 3 8 8\nconv out=4\nfc out=10 relu=zz\n");
    FAIL();
  } catch (const ParseError& e) {
    const std::string what = e.what();
    const auto first = what.find("line 4");
    ASSERT_NE(first, std::string::npos) << what;
    EXPECT_EQ(what.find("line 4", first + 1), std::string::npos)
        << "doubled line prefix: " << what;
  }
}

TEST(ModelParserTest, UnknownAttributeRejected) {
  // A typo like `ad=` must not silently drop a residual edge.
  EXPECT_THROW(
      ParseModelText("model x\ninput 3 8 8\nconv name=c out=4 ad=skip\n"),
      ParseError);
  EXPECT_THROW(
      ParseModelText("model x\ninput 3 8 8\nfc name=f out=4 pool=2\n"),
      ParseError);
}

TEST(ModelParserTest, FromUnknownLayerReportsLine) {
  try {
    ParseModelText("model x\ninput 3 8 8\nconv name=c out=4 from=ghost\n");
    FAIL();
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("ghost"), std::string::npos) << what;
  }
}

TEST(ModelParserTest, AddIntoPooledLayerRejectedWithClearError) {
  try {
    ParseModelText(
        "model x\n"
        "input 4 8 8\n"
        "conv name=a out=8\n"
        "conv name=b out=8 pool=2 add=a\n");
    FAIL() << "skip into a pooled layer must be rejected";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("pool"), std::string::npos) << what;
  }
}

TEST(ModelParserTest, AddShapeMismatchRejected) {
  EXPECT_THROW(ParseModelText("model x\n"
                              "input 4 8 8\n"
                              "conv name=a out=8\n"
                              "conv name=b out=16 add=a\n"),
               ParseError);
}

TEST(ModelParserTest, LayerBeforeInputFails) {
  EXPECT_THROW(ParseModelText("model x\nconv out=4\n"), ParseError);
}

TEST(ModelParserTest, MissingOutFails) {
  EXPECT_THROW(ParseModelText("model x\ninput 3 8 8\nconv k=3\n"),
               ParseError);
}

TEST(ModelParserTest, UnknownDirectiveFails) {
  EXPECT_THROW(ParseModelText("model x\ninput 3 8 8\nfrobnicate out=2\n"),
               ParseError);
}

TEST(ModelParserTest, BadNumberReportsLine) {
  try {
    ParseModelText("model x\ninput 3 8 8\nconv out=banana\n");
    FAIL();
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(ModelParserTest, GeometryErrorsSurfaceAsParseErrors) {
  // pool window that does not tile the fmap
  EXPECT_THROW(
      ParseModelText("model x\ninput 3 9 9\nconv out=4 pool=2\n"),
      ParseError);
}

TEST(ModelParserTest, HugePadIsATypedErrorNotAnOverflow) {
  // 8 + 2 * 2e9 does not fit in int: the padded extent must be computed
  // wide and the oversized output rejected, not wrapped.
  EXPECT_THROW(ParseModelText("model x\ninput 3 8 8\n"
                              "conv name=a out=4 p=2000000000\n"),
               ParseError);
}

TEST(ModelParserTest, OversizedExtentsAreParseErrors) {
  // Each of these parsed once, then overflowed or failed far downstream:
  // a 2e9 kernel overflowed the estimator's input window and the model's
  // op count, a 1e9-channel layer failed only at compile time, and a
  // 5x65536x65537 input flattened into an FC layer of 327680 channels.
  // Extents are bounded by kMaxModelExtent, and op counts are checked.
  for (const char* text : {
           "model x\ninput 3 8 8\nconv name=a out=4 k=2000000000 "
           "p=2000000000\n",
           "model x\ninput 3 8 8\nconv name=a out=1000000000\n",
           "model x\ninput 5 65536 65537\nfc name=f out=4\n",
           // Every extent inside the limit, but 2^80 MACs in one layer...
           "model x\ninput 1048576 1048576 1048576\n"
           "conv name=a out=1048576 k=1 p=0\n",
           // ...or 2^61 MACs in each of two, 2^63 ops in all.
           "model x\ninput 1048576 1048576 2\n"
           "conv name=a out=1048576 k=1 p=0\n"
           "conv name=b out=1048576 k=1 p=0\n",
           // A kernel or stride past what COMP's kh/kw and stride fields
           // hold (kMaxKernel, kMaxStride).
           "model x\ninput 3 32 32\nconv name=a out=4 k=16 p=0\n",
           "model x\ninput 3 32 32\nconv name=a out=4 k=3 s=5\n",
       }) {
    SCOPED_TRACE(text);
    EXPECT_THROW(ParseModelText(text), ParseError);
  }
  // The limits themselves are legal.
  const Model edge = ParseModelText(
      "model x\ninput 1 1048576 1\nconv name=a out=1 k=1 p=0 s=4\n");
  EXPECT_EQ(edge.OutputOf(0).height, 262144);
}

TEST(ModelParserTest, PadWiderThanKernelIsAParseError) {
  // Such a pad puts whole output windows inside the padding; it must fail
  // at parse time, naming the layer, instead of reaching the compiler.
  try {
    ParseModelText("model x\ninput 4 4 4\nconv name=a out=4 k=3 p=260\n");
    FAIL() << "expected a ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("a: pad 260 exceeds kernel 3x3"),
              std::string::npos)
        << e.what();
  }
  // pad == kernel stays legal.
  EXPECT_EQ(ParseModelText("model x\ninput 4 4 4\nconv name=a out=4 k=1 p=1\n")
                .layer(0)
                .pad,
            1);
}

TEST(FpgaSpecParserTest, ParsesFullSpec) {
  const FpgaSpec spec = ParseFpgaSpecText(
      "fpga myboard\n"
      "luts 53200\n"
      "dsps 220\n"
      "bram18 280\n"
      "dies 1\n"
      "bandwidth_gbps 2.0\n"
      "freq_mhz 100\n"
      "dsp_pack 2\n"
      "static_watts 1.25\n");
  EXPECT_EQ(spec.name, "myboard");
  EXPECT_EQ(spec.dsps, 220);
  EXPECT_DOUBLE_EQ(spec.dram_bandwidth_gbps, 2.0);
  EXPECT_DOUBLE_EQ(spec.dsp_pack, 2.0);
}

TEST(FpgaSpecParserTest, MissingNameFails) {
  EXPECT_THROW(ParseFpgaSpecText("luts 100\n"), ParseError);
}

TEST(FpgaSpecParserTest, IncompleteSpecFails) {
  EXPECT_THROW(ParseFpgaSpecText("fpga x\nluts 100\n"), InvalidArgument);
}

TEST(FpgaSpecParserTest, UnknownPropertyFails) {
  EXPECT_THROW(ParseFpgaSpecText("fpga x\nwombats 3\n"), ParseError);
}

// A complete nine-line spec with `tail` appended from line 10 on; a repeated
// property overrides the earlier value.
std::string SpecWith(const std::string& tail) {
  return "fpga b\nluts 53200\ndsps 220\nbram18 280\ndies 1\n"
         "bandwidth_gbps 2.0\nfreq_mhz 100\ndsp_pack 2\nstatic_watts 1.25\n" +
         tail + "\n";
}

TEST(FpgaSpecParserTest, EveryValueIsATypedErrorOrAValidField) {
  // Each value outside its property's range is a ParseError that names the
  // line and the property, never a wrapped or truncated field.
  for (const std::string bad :
       {"luts 1e30", "dies 1e30", "dies 2.5", "dies 0", "luts -1",
        "dsps 2147483648", "bram18 0.5", "bandwidth_gbps 0",
        "freq_mhz -100", "dsp_pack 0", "static_watts -1",
        "max_utilization 0", "max_utilization 1.5", "luts 12abc",
        "channels 4", "freq_mhz 1e300", "bandwidth_gbps 1e300",
        "dsp_pack 1e300"}) {
    SCOPED_TRACE(bad);
    try {
      ParseFpgaSpecText(SpecWith(bad));
      ADD_FAILURE() << "parsed";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 10"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + bad.substr(0, bad.find(' ')) + "'"),
                std::string::npos)
          << what;
    } catch (const Error& e) {
      ADD_FAILURE() << "not a ParseError: " << e.what();
    }
  }

  // The edges of each range parse.
  const FpgaSpec edge = ParseFpgaSpecText(
      SpecWith("dsps 2147483647\ndies 3\nstatic_watts 0\n"
               "max_utilization 1\ndsp_pack 0.5"));
  EXPECT_EQ(edge.dsps, 2147483647);
  EXPECT_EQ(edge.dies, 3);
  EXPECT_EQ(edge.static_watts, 0.0);
  EXPECT_EQ(edge.max_utilization, 1.0);
  EXPECT_EQ(edge.dsp_pack, 0.5);

  // The bandwidth is required, like the resources and the clock.
  EXPECT_THROW(ParseFpgaSpecText("fpga b\nluts 1\ndsps 1\nbram18 1\n"
                                 "freq_mhz 100\n"),
               InvalidArgument);
}

TEST(FpgaSpecParserTest, SpecAtTheCeilingsRunsToFiniteGops) {
  // The clock, bandwidth and packing ceilings, with every count at its
  // largest: the flow still reports a positive time and finite GOPS.
  const FpgaSpec spec = ParseFpgaSpecText(
      "fpga ceiling\nluts 2147483647\ndsps 2147483647\nbram18 2147483647\n"
      "dies 1\nbandwidth_gbps 1e5\nfreq_mhz 1e4\ndsp_pack 64\n");
  EXPECT_EQ(spec.dram_bandwidth_gbps, 1e5);
  EXPECT_EQ(spec.freq_mhz, 1e4);
  EXPECT_EQ(spec.dsp_pack, 64);
  const DesignFlowResult r =
      DesignFlow(spec).Run(BuildTinyCnn(), /*functional=*/false);
  EXPECT_GT(r.report.seconds, 0);
  EXPECT_TRUE(std::isfinite(r.report.gops)) << r.report.gops;
  EXPECT_GT(r.report.gops, 0);
}

}  // namespace
}  // namespace hdnn
