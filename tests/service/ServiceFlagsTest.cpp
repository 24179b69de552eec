//===- tests/service/ServiceFlagsTest.cpp ---------------------------------===//
//
// The shared flag parser and validator behind fcc-opt, fcc-batch and
// fcc-served: every accepted spelling lands in ServiceOptions, bad values
// carry the exact diagnostics the tools print, the cross-flag rules hold,
// and every other argument is left to the tool.
//
//===----------------------------------------------------------------------===//

#include "service/CompilationService.h"

#include "opt/PassManager.h"
#include <gtest/gtest.h>
#include <string>
#include <vector>

using namespace fcc;

namespace {

/// Parses \p Args in order into fresh options; fails the test on any
/// argument the parser does not accept.
ServiceOptions parseAll(const std::vector<std::string> &Args) {
  ServiceOptions Opts;
  for (const std::string &Arg : Args) {
    std::string Error;
    EXPECT_EQ(parseServiceFlag(Arg, Opts, Error), FlagParse::Parsed) << Arg;
    EXPECT_EQ(Error, "") << Arg;
  }
  return Opts;
}

/// The diagnostic parseServiceFlag gives for \p Arg, which must be Invalid.
std::string diagnosticFor(const std::string &Arg) {
  ServiceOptions Opts;
  std::string Error;
  EXPECT_EQ(parseServiceFlag(Arg, Opts, Error), FlagParse::Invalid) << Arg;
  return Error;
}

TEST(ServiceFlagsTest, PipelineSpellings) {
  EXPECT_EQ(ServiceOptions().Pipeline, PipelineKind::New);
  EXPECT_EQ(parseAll({"--pipeline=standard"}).Pipeline,
            PipelineKind::Standard);
  EXPECT_EQ(parseAll({"--pipeline=briggs"}).Pipeline, PipelineKind::Briggs);
  EXPECT_EQ(parseAll({"--pipeline=briggs*"}).Pipeline,
            PipelineKind::BriggsImproved);
  // The last occurrence wins, like every other tool flag.
  EXPECT_EQ(parseAll({"--pipeline=briggs", "--pipeline=new"}).Pipeline,
            PipelineKind::New);
}

TEST(ServiceFlagsTest, MachineSpellings) {
  EXPECT_FALSE(ServiceOptions().Machine);
  for (const char *Name : {"uniform1", "uniform8", "dsp", "embedded"}) {
    ServiceOptions Opts = parseAll({std::string("--machine=") + Name});
    ASSERT_TRUE(Opts.Machine) << Name;
    EXPECT_EQ(Opts.Machine->Name, Name);
  }
}

TEST(ServiceFlagsTest, PassSpellings) {
  EXPECT_EQ(passSequenceName(parseAll({"--passes=sccp,adce,pre"}).Passes),
            "sccp,adce,pre");
  EXPECT_EQ(passSequenceName(parseAll({"--passes=pre,sccp"}).Passes),
            "pre,sccp");
  EXPECT_TRUE(parseAll({"--passes=none"}).Passes.empty());
  EXPECT_TRUE(parseAll({"--passes=sccp", "--passes="}).Passes.empty());
}

TEST(ServiceFlagsTest, BooleanFlags) {
  ServiceOptions Defaults;
  EXPECT_FALSE(Defaults.CheckPartition);
  EXPECT_FALSE(Defaults.EnforceStrictness);
  ServiceOptions Opts = parseAll({"--check", "--strict"});
  EXPECT_TRUE(Opts.CheckPartition);
  EXPECT_TRUE(Opts.EnforceStrictness);
}

TEST(ServiceFlagsTest, ExactDiagnostics) {
  EXPECT_EQ(diagnosticFor("--pipeline=nope"), "unknown pipeline 'nope'");
  EXPECT_EQ(diagnosticFor("--pipeline="), "unknown pipeline ''");
  EXPECT_EQ(diagnosticFor("--machine=uniform0"),
            "unknown machine model 'uniform0'");
  EXPECT_EQ(diagnosticFor("--machine=vax"), "unknown machine model 'vax'");
  EXPECT_EQ(diagnosticFor("--passes=sccp,gvn"),
            "unknown pass 'gvn' (known passes: sccp, adce, pre)");
}

TEST(ServiceFlagsTest, InvalidValueLeavesOptionsUntouched) {
  ServiceOptions Opts = parseAll({"--pipeline=standard", "--passes=sccp"});
  std::string Error;
  EXPECT_EQ(parseServiceFlag("--pipeline=nope", Opts, Error),
            FlagParse::Invalid);
  EXPECT_EQ(parseServiceFlag("--passes=licm", Opts, Error),
            FlagParse::Invalid);
  EXPECT_EQ(Opts.Pipeline, PipelineKind::Standard);
  EXPECT_EQ(passSequenceName(Opts.Passes), "sccp");
}

TEST(ServiceFlagsTest, LeavesToolFlagsAlone) {
  for (const char *Arg :
       {"--jobs=2", "--run", "--stats", "--trace", "--trace=out.json",
        "--quiet", "--json=-", "--socket=s", "--ssa-only", "--analysis=fast",
        "--dce", "--pipeline", "--checked", "--strictly", "-check",
        "examples/ir", ""}) {
    ServiceOptions Opts;
    std::string Error;
    EXPECT_EQ(parseServiceFlag(Arg, Opts, Error), FlagParse::NotShared)
        << Arg;
    EXPECT_EQ(Error, "") << Arg;
    EXPECT_FALSE(Opts.CheckPartition || Opts.EnforceStrictness) << Arg;
  }
}

TEST(ServiceFlagsTest, CheckNeedsNewPipeline) {
  std::string Error;
  EXPECT_TRUE(validateServiceOptions(parseAll({"--check"}), Error));
  for (const char *Pipeline :
       {"--pipeline=standard", "--pipeline=briggs", "--pipeline=briggs*"}) {
    EXPECT_FALSE(
        validateServiceOptions(parseAll({Pipeline, "--check"}), Error));
    EXPECT_EQ(Error, "--check requires --pipeline=new");
  }
}

TEST(ServiceFlagsTest, BriggsRejectsPasses) {
  std::string Error;
  EXPECT_TRUE(validateServiceOptions(
      parseAll({"--pipeline=standard", "--passes=sccp"}), Error));
  EXPECT_TRUE(validateServiceOptions(
      parseAll({"--pipeline=briggs", "--passes=none"}), Error));
  for (const char *Pipeline : {"--pipeline=briggs", "--pipeline=briggs*"}) {
    EXPECT_FALSE(
        validateServiceOptions(parseAll({Pipeline, "--passes=sccp"}), Error));
    EXPECT_EQ(Error, "--passes is not supported with the Briggs pipelines "
                     "(live-range webs assume unoptimized SSA)");
  }
}

TEST(ServiceFlagsTest, PipelineOptionsCarryTheFlags) {
  ServiceOptions Opts =
      parseAll({"--pipeline=new", "--machine=dsp", "--passes=sccp,adce",
                "--check"});
  PipelineOptions P = pipelineOptionsFor(Opts);
  EXPECT_EQ(P.Kind, PipelineKind::New);
  ASSERT_NE(P.Machine, nullptr);
  EXPECT_EQ(P.Machine, &*Opts.Machine);
  EXPECT_EQ(passSequenceName(P.Passes), "sccp,adce");
  EXPECT_TRUE(P.CheckPartition);
  EXPECT_EQ(P.Instr, nullptr);
  EXPECT_EQ(pipelineOptionsFor(ServiceOptions()).Machine, nullptr);
}

} // namespace
