// ftune's command line as a user meets it, run as a child process: a
// bad value is refused (message, help, exit 1) even where the code that
// reads the flag never runs, and tune/campaign --help list every knob
// of every registered algorithm.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/search_registry.hpp"

namespace ft {
namespace {

struct ToolRun {
  int status = -1;     // exit status; -1 when killed by a signal
  std::string output;  // stdout and stderr together
};

ToolRun ftune(const std::string& args) {
  const std::string command =
      std::string(FT_FTUNE_PATH) + " " + args + " 2>&1";
  ToolRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    run.output.append(buffer, read);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.status = WEXITSTATUS(status);
  return run;
}

/// The help row of option `head` ("--cfr:top-x") in `help`, or "".
std::string row_of(const std::string& help, const std::string& head) {
  std::istringstream lines(help);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  " + head + " ", 0) == 0) return line;
  }
  return "";
}

void expect_refused(const std::string& args, const std::string& reason) {
  const ToolRun run = ftune(args);
  EXPECT_EQ(run.status, 1) << args << "\n" << run.output;
  EXPECT_NE(run.output.find(reason), std::string::npos)
      << args << "\n" << run.output;
  // Refused at the command line: the help follows, no tuning ran.
  EXPECT_NE(run.output.find("usage: ftune"), std::string::npos) << args;
  EXPECT_EQ(run.output.find("Tuning "), std::string::npos) << args;
}

TEST(FtuneCli, RefusesBadFramingAndChaosWithoutRemote) {
  // Neither flag is read without --remote.
  expect_refused("tune --program CL --samples 5 --framing bogus",
                 "--framing: unknown framing 'bogus'");
  expect_refused("tune --program CL --samples 5 --chaos banana=2",
                 "--chaos: unknown chaos fault 'banana'");
}

TEST(FtuneCli, RefusesUnknownNamesSizesAndKnobs) {
  expect_refused("tune --program NOPE --samples 5", "--program: ");
  expect_refused("tune --arch m68k --samples 5", "--arch: ");
  expect_refused("tune --samples 5 --eval-cache-disk-size 12Q",
                 "--eval-cache-disk-size: not a byte size: '12Q'");
  expect_refused("tune --samples 5 --algorithm bo", "--algorithm: ");
  expect_refused("tune --samples 5 --cfr:banana=1",
                 "unknown option: --cfr:banana");
  expect_refused("tune --samples 5 --annealing:temp=3",
                 "unknown option namespace: --annealing:temp");
  expect_refused("campaign --programs CL,NOPE --samples 5", "--programs: ");
  expect_refused("campaign --samples 5 --algorithms cfr,bo",
                 "--algorithms: ");
  // A campaign's cells come from --programs/--archs alone, so the
  // one-cell flags are unknown there instead of silently ignored.
  expect_refused(
      "campaign --program AMG --archs broadwell --algorithms random "
      "--samples 5",
      "unknown option: --program");
  expect_refused("campaign --arch broadwell --programs CL --samples 5",
                 "unknown option: --arch");
  // Out-of-range sizes and knobs: refused at parse time, not a crash
  // (or a silent fallback) later.
  expect_refused("tune --samples 5 --cfr:top-x 0",
                 "--cfr:top-x: must be at least 1");
  expect_refused("tune --samples 5 --algorithm retune --retune:top-x 0",
                 "--retune:top-x: must be at least 1");
  expect_refused("tune --samples 5 --cfr:samples 0",
                 "--cfr:samples: must be at least 1");
  expect_refused("tune --samples 5 --fr:samples 0",
                 "--fr:samples: must be at least 1");
  expect_refused("tune --samples 0 --algorithm greedy",
                 "--samples: must be at least 1");
  expect_refused("campaign --samples 0 --algorithms greedy",
                 "--samples: must be at least 1");
  expect_refused("tune --samples 5 --threads -3",
                 "--threads: must be at least 0");
  expect_refused("tune --samples 5 --final-reps 0",
                 "--final-reps: must be at least 1");
  expect_refused("tune --samples 5 --final-reps -2",
                 "--final-reps: must be at least 1");
}

TEST(FtuneCli, TuneAndCampaignHelpListEveryKnob) {
  // The knob rows a set declaring every registered algorithm renders.
  support::OptionSet every;
  every.flag("help", false, "");
  core::SearchRegistry::global().declare_knobs(every);
  std::vector<std::string> knobs;
  std::istringstream rows(every.help(""));
  for (std::string row; std::getline(rows, row);) {
    if (row.rfind("  --", 0) == 0 && row.find(':') != std::string::npos) {
      knobs.push_back(row.substr(2, row.find(' ', 4) - 2));
    }
  }
  ASSERT_GE(knobs.size(), 7u);

  for (const std::string command : {"tune", "campaign"}) {
    const ToolRun run = ftune(command + " --help");
    ASSERT_EQ(run.status, 0) << run.output;
    for (const std::string& knob : knobs) {
      EXPECT_NE(row_of(run.output, knob), "") << command << " " << knob;
    }
    for (const char* budget :
         {"--fr:samples", "--cfr:samples", "--retune:iterations"}) {
      EXPECT_NE(row_of(run.output, budget).find("[default: --samples]"),
                std::string::npos)
          << command << " " << budget;
    }
  }
}

}  // namespace
}  // namespace ft
