// Command bpsim runs a branch predictor over synthetic benchmark traces
// and reports accuracy and access statistics. -model accepts any model
// spec: a named model or a parameterised configuration (see the README
// "Model specs" section). The traces run as a one-model matrix on the
// harness executor bpbench and bptables use.
//
// Usage:
//
//	bpsim -model tage-lsc -scenario A -branches 1000000 [-trace INT01]
//	bpsim -model 'tage:tables=9,hist=6:500' -scenario A
//	bpsim -model 'composed:tage+ium+lsc@+2' -scenario C
//	bpsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/cli"
	"repro/internal/harness"
)

// resolve maps the -model and -scenario flag values to a Model and a
// Scenario through the shared repro-level parsers (the same mapping
// bpbench uses), so flag handling is testable without running main.
func resolve(model, scenario string) (*repro.Model, repro.Scenario, error) {
	m, err := repro.LookupModel(model)
	if err != nil {
		return nil, 0, err
	}
	sc, err := repro.ParseScenario(scenario)
	if err != nil {
		return nil, 0, err
	}
	return m, sc, nil
}

// simulate runs the model over the traces (nil: all 40 benchmarks) as
// a one-model matrix on the harness executor, returning each trace's
// full result in trace order.
func simulate(model string, traces []string, sc repro.Scenario, branches, window int) ([]repro.Result, error) {
	mat, err := repro.NewBenchMatrix([]string{model}, traces, sc.Letter(), []int{branches})
	if err != nil {
		return nil, err
	}
	mat.Window = window
	jobs, err := mat.Expand()
	if err != nil {
		return nil, err
	}
	return harness.Simulate(jobs, harness.Config{})
}

func main() {
	model := flag.String("model", "tage", "predictor model spec: a named model or kind:key=value,... (see -list)")
	scenario := flag.String("scenario", "A", "update scenario: I, A, B or C")
	traceName := flag.String("trace", "", "workload to run: a benchmark name, a name glob like 'INT*', or a trace spec like 'phased:period=4096#1' (default: all 40 benchmarks)")
	branches := flag.Int("branches", 500000, "branches per trace")
	window := flag.Int("window", 24, "in-flight branch window")
	list := flag.Bool("list", false, "list models and traces, then exit")
	verbose, quiet := cli.Verbosity(flag.CommandLine)
	flag.Parse()
	log := cli.NewLogger(os.Stderr, *verbose, *quiet)

	if *list {
		fmt.Println("models: ", strings.Join(repro.ModelNames(), " "))
		fmt.Println("traces: ", strings.Join(repro.TraceNames(), " "))
		fmt.Println("workload kinds:")
		for _, l := range repro.WorkloadKindSummaries() {
			fmt.Println("  " + l)
		}
		return
	}

	m, sc, err := resolve(*model, *scenario)
	if err != nil {
		log.Error(fmt.Sprintf("bpsim: %v (try -list)", err))
		os.Exit(1)
	}
	var traces []string
	if *traceName != "" {
		traces = []string{*traceName}
	}
	log.Debug(fmt.Sprintf("bpsim: running %d branches per trace", *branches))
	fmt.Printf("# model=%s storage=%dKbit scenario=%s branches/trace=%d\n",
		m.Name(), m.StorageBits()/1024, sc, *branches)
	results, err := simulate(*model, traces, sc, *branches, *window)
	if err != nil {
		log.Error(fmt.Sprintf("bpsim: %v", err))
		os.Exit(1)
	}
	suite := &repro.Suite{}
	for _, res := range results {
		suite.Add(res)
		fmt.Printf("%-10s MPKI=%7.3f MPPKI=%8.2f mispredict=%5.2f%% accesses/branch=%.3f\n",
			res.Trace, res.MPKI, res.MPPKI, 100*res.Misprediction,
			res.Access.AccessesPerBranch())
	}
	if len(results) > 1 {
		acc := suite.AccessTotals()
		fmt.Printf("# suite: MPKI-sum=%.1f MPPKI-sum=%.0f silent-updates=%.1f%% writes/100br=%.2f\n",
			suite.TotalMPKI(), suite.TotalMPPKI(),
			100*acc.SilentFraction(), acc.WritesPer100Branches())
	}
}
