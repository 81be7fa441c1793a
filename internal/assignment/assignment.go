// Package assignment adds the worker–task matching dimension of the
// related work ([22] Ho & Vaughan, online task assignment in crowdsourcing
// markets): when tasks are heterogeneous — different requester values,
// different fit per worker — the requester must decide *who works on
// what* before designing contracts.
//
// The package provides an exact maximum-value assignment solver (the
// Hungarian algorithm, O(n³)) and a greedy baseline, over a value matrix
// whose entries are typically the per-(worker, task) requester utilities
// that core.DesignInto predicts. Workers and tasks need not be equal in
// number; the rectangular problem is solved by implicit padding.
package assignment

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrBadMatrix is returned for malformed value matrices.
var ErrBadMatrix = errors.New("assignment: invalid value matrix")

// Result is a worker→task matching.
type Result struct {
	// TaskOf maps worker index to assigned task index, −1 if unassigned.
	TaskOf []int
	// TotalValue is the summed value of the matched pairs.
	TotalValue float64
}

// validate checks the matrix is rectangular, non-empty, and finite.
func validate(value [][]float64) (rows, cols int, err error) {
	rows = len(value)
	if rows == 0 {
		return 0, 0, fmt.Errorf("no workers: %w", ErrBadMatrix)
	}
	cols = len(value[0])
	if cols == 0 {
		return 0, 0, fmt.Errorf("no tasks: %w", ErrBadMatrix)
	}
	for i, row := range value {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("row %d has %d entries, want %d: %w", i, len(row), cols, ErrBadMatrix)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("entry (%d,%d)=%v: %w", i, j, v, ErrBadMatrix)
			}
		}
	}
	return rows, cols, nil
}

// Greedy assigns pairs in decreasing value order, skipping negative-value
// pairs (leaving a worker idle is better than a harmful match). A worker
// gets at most one task and vice versa.
func Greedy(value [][]float64) (*Result, error) {
	rows, cols, err := validate(value)
	if err != nil {
		return nil, err
	}
	type pair struct {
		w, t int
		v    float64
	}
	pairs := make([]pair, 0, rows*cols)
	for w := 0; w < rows; w++ {
		for t := 0; t < cols; t++ {
			if value[w][t] > 0 {
				pairs = append(pairs, pair{w, t, value[w][t]})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].v != pairs[b].v {
			return pairs[a].v > pairs[b].v
		}
		if pairs[a].w != pairs[b].w {
			return pairs[a].w < pairs[b].w
		}
		return pairs[a].t < pairs[b].t
	})
	res := &Result{TaskOf: make([]int, rows)}
	for i := range res.TaskOf {
		res.TaskOf[i] = -1
	}
	taskTaken := make([]bool, cols)
	for _, p := range pairs {
		if res.TaskOf[p.w] != -1 || taskTaken[p.t] {
			continue
		}
		res.TaskOf[p.w] = p.t
		taskTaken[p.t] = true
		res.TotalValue += p.v
	}
	return res, nil
}

// Optimal computes the maximum-total-value assignment with the Hungarian
// algorithm. Negative-value matches are never made: the matrix is clamped
// at zero and zero-value matches are reported as unassigned.
func Optimal(value [][]float64) (*Result, error) {
	rows, cols, err := validate(value)
	if err != nil {
		return nil, err
	}
	// Pad to square n×n; padded cells carry value 0 (equivalent to not
	// assigning), and negatives clamp to 0 for the same reason.
	n := rows
	if cols > n {
		n = cols
	}
	// Hungarian solves minimization; convert value-max into cost-min by
	// cost = maxV − value.
	maxV := 0.0
	for w := 0; w < rows; w++ {
		for t := 0; t < cols; t++ {
			if value[w][t] > maxV {
				maxV = value[w][t]
			}
		}
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			v := 0.0
			if i < rows && j < cols && value[i][j] > 0 {
				v = value[i][j]
			}
			cost[i][j] = maxV - v
		}
	}

	match := hungarian(cost)

	res := &Result{TaskOf: make([]int, rows)}
	for w := 0; w < rows; w++ {
		t := match[w]
		if t < cols && value[w][t] > 0 {
			res.TaskOf[w] = t
			res.TotalValue += value[w][t]
		} else {
			res.TaskOf[w] = -1
		}
	}
	return res, nil
}

// hungarian returns, for the square cost matrix, the column assigned to
// each row under a minimum-cost perfect matching (Jonker-style O(n³)
// potentials-and-augmenting-paths formulation).
func hungarian(cost [][]float64) []int {
	n := len(cost)
	// Potentials u (rows), v (cols); way[j] = previous column on the
	// augmenting path; matchCol[j] = row matched to column j. 1-based
	// internally with column 0 as the virtual root.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	matchCol := make([]int, n+1)
	way := make([]int, n+1)
	for i := range matchCol {
		matchCol[i] = 0
	}
	const inf = math.MaxFloat64
	for i := 1; i <= n; i++ {
		matchCol[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0 := matchCol[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[matchCol[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if matchCol[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			matchCol[j0] = matchCol[j1]
			j0 = j1
		}
	}
	rowToCol := make([]int, n)
	for j := 1; j <= n; j++ {
		if matchCol[j] > 0 {
			rowToCol[matchCol[j]-1] = j - 1
		}
	}
	return rowToCol
}
