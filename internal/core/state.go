package core

import "fmt"

// State is the outcome of preprocessing: the resolved threshold and
// the learned priors. It is the in-memory hand-off to the snapshot
// codec (internal/snapshot), which persists it beside the dataset,
// configuration and index, so a restart answers queries without
// re-running the quantile resolution and the §3.2 learning phase,
// which dominate startup cost on large datasets.
type State struct {
	// Threshold is the resolved T.
	Threshold float64
	// PUp/PDown are the query priors (index 0 unused).
	PUp   []float64
	PDown []float64
	// Learned records whether the priors came from learning (vs
	// uniform).
	Learned bool
}

// ExportState captures the preprocessed state. It fails if Preprocess
// has not run yet.
func (m *Miner) ExportState() (*State, error) {
	if !m.preprocessed {
		return nil, fmt.Errorf("core: ExportState before Preprocess")
	}
	return &State{
		Threshold: m.threshold,
		PUp:       append([]float64(nil), m.priors.PUp...),
		PDown:     append([]float64(nil), m.priors.PDown...),
		Learned:   m.learned,
	}, nil
}

// ImportState installs a previously exported state, skipping
// threshold resolution and learning on the next query. The priors
// must cover the miner's dataset dimensionality.
func (m *Miner) ImportState(s *State) error {
	if s == nil {
		return fmt.Errorf("core: nil state")
	}
	if s.Threshold <= 0 {
		return fmt.Errorf("core: state threshold %v must be positive", s.Threshold)
	}
	priors := Priors{
		PUp:   append([]float64(nil), s.PUp...),
		PDown: append([]float64(nil), s.PDown...),
	}
	if err := priors.Validate(); err != nil {
		return fmt.Errorf("core: state priors: %w", err)
	}
	if priors.Dim() != m.ds.Dim() {
		return fmt.Errorf("core: state priors cover %d layers, dataset has d=%d", priors.Dim(), m.ds.Dim())
	}
	m.threshold = s.Threshold
	m.priors = priors
	m.learned = s.Learned
	m.preprocessed = true
	return nil
}
