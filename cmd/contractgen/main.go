// Command contractgen designs and prints a single worker's dynamic
// contract from the command line — the smallest possible window into the
// §IV-C algorithm.
//
// Usage:
//
//	contractgen [-class honest|malicious] [-r2 v] [-r1 v] [-r0 v]
//	            [-beta v] [-omega v] [-mu v] [-w v] [-m n] [-json]
//
// The effort function is ψ(y) = r2·y² + r1·y + r0 (r2 < 0, r1 > 0); the
// partition spans [0, yMax] where yMax keeps ψ increasing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "contractgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("contractgen", flag.ContinueOnError)
	var (
		class   = fs.String("class", "honest", "worker class: honest or malicious")
		r2      = fs.Float64("r2", -0.02, "effort function curvature (must be < 0)")
		r1      = fs.Float64("r1", 2, "effort function slope at zero (must be > 0)")
		r0      = fs.Float64("r0", 1, "effort function intercept")
		beta    = fs.Float64("beta", 1, "worker effort-cost weight")
		omega   = fs.Float64("omega", 0.5, "malicious feedback weight (ignored for honest)")
		mu      = fs.Float64("mu", 1, "requester compensation weight")
		w       = fs.Float64("w", 1, "requester feedback weight for this worker")
		m       = fs.Int("m", 10, "number of effort intervals")
		asJSON  = fs.Bool("json", false, "emit the result as JSON")
		yMaxArg = fs.Float64("ymax", 0, "effort range (0 = 80% of the psi apex)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	yMax := *yMaxArg
	if yMax <= 0 {
		yMax = 0.8 * (-*r1 / (2 * *r2))
	}
	psi, err := effort.NewQuadratic(*r2, *r1, *r0, yMax)
	if err != nil {
		return err
	}
	part, err := effort.NewPartition(*m, yMax/float64(*m))
	if err != nil {
		return err
	}

	var agent *worker.Agent
	switch *class {
	case "honest":
		agent, err = worker.NewHonest("cli-worker", psi, *beta, part.YMax())
	case "malicious":
		agent, err = worker.NewMalicious("cli-worker", psi, *beta, *omega, part.YMax())
	default:
		return fmt.Errorf("unknown class %q (want honest or malicious)", *class)
	}
	if err != nil {
		return err
	}

	res, err := core.DesignInto(agent, core.Config{Part: part, Mu: *mu, W: *w}, nil)
	if err != nil {
		return err
	}

	if *asJSON {
		payload := struct {
			KOpt             int             `json:"k_opt"`
			Effort           float64         `json:"effort"`
			Feedback         float64         `json:"feedback"`
			Compensation     float64         `json:"compensation"`
			RequesterUtility float64         `json:"requester_utility"`
			LowerBound       float64         `json:"lower_bound"`
			UpperBound       float64         `json:"upper_bound"`
			Contract         json.RawMessage `json:"contract"`
		}{
			KOpt:             res.KOpt,
			Effort:           res.Response.Effort,
			Feedback:         res.Response.Feedback,
			Compensation:     res.Response.Compensation,
			RequesterUtility: res.RequesterUtility,
			LowerBound:       res.LowerBound,
			UpperBound:       res.UpperBound,
		}
		raw, err := json.Marshal(res.Contract)
		if err != nil {
			return err
		}
		payload.Contract = raw
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(payload)
	}

	fmt.Fprintf(out, "worker: %s (%s), psi: %v\n", agent.ID, agent.Class, psi)
	fmt.Fprintf(out, "partition: m=%d, delta=%.4g, yMax=%.4g\n", part.M, part.Delta, part.YMax())
	fmt.Fprintf(out, "designed contract (feedback -> compensation knots):\n")
	for l := 0; l <= res.Contract.Pieces(); l++ {
		fmt.Fprintf(out, "  d[%2d]=%8.4f  x[%2d]=%8.4f\n", l, res.Contract.Knot(l), l, res.Contract.Comp(l))
	}
	fmt.Fprintf(out, "target interval k_opt=%d\n", res.KOpt)
	fmt.Fprintf(out, "predicted best response: effort=%.4f feedback=%.4f compensation=%.4f\n",
		res.Response.Effort, res.Response.Feedback, res.Response.Compensation)
	fmt.Fprintf(out, "requester utility=%.4f (Theorem 4.1 bounds: [%.4f, %.4f])\n",
		res.RequesterUtility, res.LowerBound, res.UpperBound)
	return nil
}
