package par

import (
	"errors"
	"strings"
	"testing"
)

func TestRecoverCapturesPanic(t *testing.T) {
	err := Recover(func() { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T, want *PanicError", err)
	}
	if pe.Value != "boom" || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic error lost its value: %v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error lost its stack")
	}
}

func TestRecoverNormalReturn(t *testing.T) {
	if err := Recover(func() {}); err != nil {
		t.Fatalf("Recover of clean fn = %v, want nil", err)
	}
}
