package vector

import (
	"errors"
	"testing"
)

func mkCommunity(t *testing.T, name string, users ...Vector) *Community {
	t.Helper()
	c, err := NewCommunity(name, 0, users)
	if err != nil {
		t.Fatalf("NewCommunity(%q): %v", name, err)
	}
	return c
}

func TestNewCommunityValidates(t *testing.T) {
	if _, err := NewCommunity("empty", 3, nil); !errors.Is(err, ErrEmptyCommunity) {
		t.Errorf("expected ErrEmptyCommunity, got %v", err)
	}
	if _, err := NewCommunity("mixed", 0, []Vector{{1, 2}, {1, 2, 3}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("expected ErrDimensionMismatch, got %v", err)
	}
	if _, err := NewCommunity("neg", 0, []Vector{{1, -2}}); !errors.Is(err, ErrNegativeCounter) {
		t.Errorf("expected ErrNegativeCounter, got %v", err)
	}
	if _, err := NewCommunity("wrongd", 3, []Vector{{1, 2}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("expected ErrDimensionMismatch for explicit d, got %v", err)
	}
	c, err := NewCommunity("ok", 2, []Vector{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if c.Size() != 2 || c.Dim() != 2 {
		t.Errorf("Size=%d Dim=%d, want 2, 2", c.Size(), c.Dim())
	}
}

func TestCommunityCloneIsDeep(t *testing.T) {
	c := mkCommunity(t, "c", Vector{1, 2}, Vector{3, 4})
	c.Category = 7
	cl := c.Clone()
	cl.Users[0][0] = 99
	cl.Name = "other"
	if c.Users[0][0] != 1 || c.Name != "c" {
		t.Error("Clone is not a deep copy")
	}
	if cl.Category != 7 {
		t.Error("Clone should preserve Category")
	}
}

func TestCheckSizes(t *testing.T) {
	tests := []struct {
		name   string
		nb, na int
		ok     bool
	}{
		{"equal sizes", 10, 10, true},
		{"exact half even", 5, 10, true},
		{"exact ceil half odd", 6, 11, true},
		{"below ceil half odd", 5, 11, false},
		{"below half", 4, 10, false},
		{"B larger than A", 11, 10, false},
		{"singletons", 1, 1, true},
		{"1 vs 2", 1, 2, true},
		{"1 vs 3", 1, 3, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(n int) *Community {
				users := make([]Vector, n)
				for i := range users {
					users[i] = Vector{int32(i)}
				}
				return &Community{Name: "x", Users: users}
			}
			err := CheckSizes(mk(tc.nb), mk(tc.na))
			if tc.ok && err != nil {
				t.Errorf("CheckSizes(%d, %d) = %v, want nil", tc.nb, tc.na, err)
			}
			if !tc.ok && !errors.Is(err, ErrSizeConstraint) {
				t.Errorf("CheckSizes(%d, %d) = %v, want ErrSizeConstraint", tc.nb, tc.na, err)
			}
		})
	}
}

func TestCheckSizesEmpty(t *testing.T) {
	empty := &Community{Name: "e"}
	nonEmpty := mkCommunity(t, "x", Vector{1})
	if err := CheckSizes(empty, nonEmpty); !errors.Is(err, ErrEmptyCommunity) {
		t.Errorf("expected ErrEmptyCommunity, got %v", err)
	}
	if err := CheckSizes(nonEmpty, empty); !errors.Is(err, ErrEmptyCommunity) {
		t.Errorf("expected ErrEmptyCommunity, got %v", err)
	}
}
