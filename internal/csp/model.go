// Package csp implements the constraint-satisfaction machinery of §4: a
// pseudo-boolean (0/1 integer) constraint model, a WSAT(OIP)-style local
// search solver in the spirit of Walser's integer local search, an exact
// depth-first solver with propagation for small instances and UNSAT
// certification, and the encoder that turns record-segmentation
// observations into uniqueness, consecutiveness and position constraints.
package csp

import (
	"fmt"
	"strings"
)

// Op is a linear-constraint comparison operator.
type Op int

const (
	// LE means Σ aᵢxᵢ ≤ b.
	LE Op = iota
	// GE means Σ aᵢxᵢ ≥ b.
	GE
	// EQ means Σ aᵢxᵢ = b.
	EQ
)

func (op Op) String() string {
	switch op {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

// Term is one aᵢ·xᵢ summand of a linear constraint.
type Term struct {
	Coef int
	Var  int
}

// Constraint is a linear pseudo-boolean constraint over 0/1 variables.
// Weight 0 marks a hard constraint; a positive weight marks a soft
// constraint whose violation is penalized but permitted (WSAT(OIP)'s
// over-constrained formulation).
type Constraint struct {
	Terms  []Term
	Op     Op
	RHS    int
	Weight int
	// Tag records the constraint's provenance ("uniq", "consec", "pos",
	// "cut") for diagnostics and relaxation decisions.
	Tag string
}

// Hard reports whether the constraint must be satisfied.
func (c *Constraint) Hard() bool { return c.Weight == 0 }

// LHS evaluates the constraint's left-hand side under an assignment.
func (c *Constraint) LHS(assign []bool) int {
	s := 0
	for _, t := range c.Terms {
		if assign[t.Var] {
			s += t.Coef
		}
	}
	return s
}

// Violation returns how far the constraint is from satisfaction under
// the assignment (0 when satisfied). For EQ it is |lhs−rhs|; for the
// inequalities it is the one-sided excess.
func (c *Constraint) Violation(assign []bool) int {
	return c.violationOf(c.LHS(assign))
}

func (c *Constraint) violationOf(lhs int) int { return violation(c.Op, c.RHS, lhs) }

// violation is how far lhs op rhs is from holding (0 when it holds).
func violation(op Op, rhs, lhs int) int {
	switch op {
	case LE:
		if lhs > rhs {
			return lhs - rhs
		}
	case GE:
		if lhs < rhs {
			return rhs - lhs
		}
	case EQ:
		if lhs > rhs {
			return lhs - rhs
		}
		return rhs - lhs
	}
	return 0
}

// String renders the constraint in a readable algebraic form.
func (c *Constraint) String() string {
	var b strings.Builder
	for i, t := range c.Terms {
		if i > 0 {
			if t.Coef >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
			}
		} else if t.Coef < 0 {
			b.WriteString("-")
		}
		a := t.Coef
		if a < 0 {
			a = -a
		}
		if a != 1 {
			fmt.Fprintf(&b, "%d·", a)
		}
		fmt.Fprintf(&b, "x%d", t.Var)
	}
	fmt.Fprintf(&b, " %s %d", c.Op, c.RHS)
	if !c.Hard() {
		fmt.Fprintf(&b, " (soft w=%d)", c.Weight)
	}
	if c.Tag != "" {
		fmt.Fprintf(&b, " [%s]", c.Tag)
	}
	return b.String()
}

// Problem is a pseudo-boolean constraint problem.
type Problem struct {
	numVars     int
	names       []string
	Constraints []Constraint
}

// NewProblem creates an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar introduces a new 0/1 variable with a diagnostic name and
// returns its index.
func (p *Problem) AddVar(name string) int {
	p.names = append(p.names, name)
	p.numVars++
	return p.numVars - 1
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return p.numVars }

// VarName returns the diagnostic name of variable v.
func (p *Problem) VarName(v int) string {
	if v >= 0 && v < len(p.names) && p.names[v] != "" {
		return p.names[v]
	}
	return fmt.Sprintf("x%d", v)
}

// Add appends a constraint after validating its variable indices.
func (p *Problem) Add(c Constraint) {
	for _, t := range c.Terms {
		if t.Var < 0 || t.Var >= p.numVars {
			panic(fmt.Sprintf("csp: constraint references undeclared variable %d (have %d)", t.Var, p.numVars))
		}
	}
	p.Constraints = append(p.Constraints, c)
}

// AddHard is shorthand for adding a hard constraint.
func (p *Problem) AddHard(terms []Term, op Op, rhs int, tag string) {
	p.Add(Constraint{Terms: terms, Op: op, RHS: rhs, Tag: tag})
}

// AddSoft is shorthand for adding a weighted soft constraint.
func (p *Problem) AddSoft(terms []Term, op Op, rhs int, weight int, tag string) {
	if weight <= 0 {
		panic("csp: soft constraint requires positive weight")
	}
	p.Add(Constraint{Terms: terms, Op: op, RHS: rhs, Weight: weight, Tag: tag})
}

// Eval summarizes an assignment's feasibility: the total hard violation,
// the total weighted soft penalty, and the indices of violated hard
// constraints.
func (p *Problem) Eval(assign []bool) (hardViolation, softPenalty int, violatedHard []int) {
	for i := range p.Constraints {
		c := &p.Constraints[i]
		v := c.Violation(assign)
		if v == 0 {
			continue
		}
		if c.Hard() {
			hardViolation += v
			violatedHard = append(violatedHard, i)
		} else {
			softPenalty += v * c.Weight
		}
	}
	return hardViolation, softPenalty, violatedHard
}

// Feasible reports whether the assignment satisfies every hard constraint.
func (p *Problem) Feasible(assign []bool) bool {
	for i := range p.Constraints {
		c := &p.Constraints[i]
		if c.Hard() && c.Violation(assign) != 0 {
			return false
		}
	}
	return true
}
