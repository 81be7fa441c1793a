package experiments

import (
	"fmt"

	"dyncontract/internal/cluster"
	"dyncontract/internal/synthpop"
)

// paperTable2 is the published distribution of collusive-community sizes
// (Table II of the paper), in percent of the 47 communities.
var paperTable2 = map[string]float64{
	"2": 51.2, "3": 22.0, "4": 7.3, "5": 2.4, "6": 9.8, ">=10": 4.9,
}

// RunTable2 regenerates Table II: the distribution of detected
// collusive-community sizes, side by side with the paper's numbers.
func RunTable2(p *synthpop.Pipeline, _ Params) (*Report, error) {
	buckets := cluster.SizeDistribution(p.Communities, []int{2, 3, 4, 5, 6}, 10)
	rep := &Report{
		ID:     "table2",
		Title:  "distribution of collusive community size",
		Header: []string{"size", "communities", "percent", "paper-percent"},
	}
	totalWorkers := 0
	for _, c := range p.Communities {
		totalWorkers += c.Size()
	}
	for _, b := range buckets {
		paper := "-"
		if v, ok := paperTable2[b.Label]; ok {
			paper = f1(v)
		}
		rep.Rows = append(rep.Rows, []string{b.Label, fmt.Sprintf("%d", b.Count), f1(b.Percent), paper})
		rep.BarLabels = append(rep.BarLabels, b.Label)
		rep.BarValues = append(rep.BarValues, b.Percent)
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("detected %d communities covering %d collusive workers (paper: 47 communities, 212 workers)",
			len(p.Communities), totalWorkers))
	return rep, nil
}
