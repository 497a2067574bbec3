package core

import (
	"testing"

	"repro/internal/ffi"
)

func TestGateCostOption(t *testing.T) {
	reg := ffi.NewRegistry()
	p, err := NewProgram(reg, Base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Runtime().GateCost(); got != ffi.DefaultGateCost {
		t.Errorf("default gate cost = %d, want %d", got, ffi.DefaultGateCost)
	}
	p.Runtime().SetGateCost(-5)
	if got := p.Runtime().GateCost(); got != 0 {
		t.Errorf("negative gate cost not clamped: %d", got)
	}
}
