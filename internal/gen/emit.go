package gen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"
)

// funcRole classifies a Support function reference so the emitter can
// declare its signature (and detect a name reused with two different
// roles).
type funcRole int

const (
	roleCondition funcRole = iota
	roleAlgCost
	roleApplicability
	roleAlgBuild
	roleAlgDelivered
	roleEnfRelax
	roleEnfCost
	roleEnfBuild
	roleEnfDelivered
)

var roleSignatures = map[funcRole]string{
	roleCondition:     "(ctx *core.RuleContext, b *core.Binding) bool",
	roleAlgCost:       "(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.Cost",
	roleApplicability: "(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool)",
	roleAlgBuild:      "(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp",
	roleAlgDelivered:  "(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq, inputs []core.PhysProps) core.PhysProps",
	roleEnfRelax:      "(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) (relaxed, excluded core.PhysProps, ok bool)",
	roleEnfCost:       "(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.Cost",
	roleEnfBuild:      "(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp",
	roleEnfDelivered:  "(ctx *core.RuleContext, required core.PhysProps, input core.PhysProps) core.PhysProps",
}

// supportFunc is one collected Support method.
type supportFunc struct {
	name string
	role funcRole
	doc  string
}

// Generate translates a parsed specification into formatted Go source
// for the optimizer package.
func Generate(spec *Spec) ([]byte, error) {
	e := &emitter{spec: spec, funcs: map[string]*supportFunc{}}
	if err := e.collect(); err != nil {
		return nil, err
	}
	src := e.emit()
	out, err := format.Source([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("gen: generated source does not format: %w\n%s", err, src)
	}
	return out, nil
}

type emitter struct {
	spec  *Spec
	funcs map[string]*supportFunc
	b     strings.Builder
}

// methodName exports a support-function reference as a Go method name,
// so implementations outside the generated package can provide it.
func methodName(name string) string {
	if name == "" {
		return ""
	}
	return strings.ToUpper(name[:1]) + name[1:]
}

func (e *emitter) addFunc(name string, role funcRole, doc string) error {
	if name == "" {
		return nil
	}
	name = methodName(name)
	if f, ok := e.funcs[name]; ok {
		if f.role != role && roleSignatures[f.role] != roleSignatures[role] {
			return fmt.Errorf("gen: support function %s used with two different signatures", name)
		}
		return nil
	}
	e.funcs[name] = &supportFunc{name: name, role: role, doc: doc}
	return nil
}

func (e *emitter) collect() error {
	for _, tr := range e.spec.Transforms {
		if err := e.addFunc(tr.Condition, roleCondition,
			fmt.Sprintf("%s is the condition code of transformation rule %s.", methodName(tr.Condition), tr.Name)); err != nil {
			return err
		}
		for _, sub := range tr.Substs {
			if err := e.addFunc(sub.Condition, roleCondition,
				fmt.Sprintf("%s guards one substitute of transformation rule %s.", methodName(sub.Condition), tr.Name)); err != nil {
				return err
			}
		}
	}
	for _, alg := range e.spec.Algorithms {
		if err := e.addFunc(alg.Cost, roleAlgCost,
			fmt.Sprintf("%s is the cost function of algorithm %s.", methodName(alg.Cost), alg.Name)); err != nil {
			return err
		}
		if err := e.addFunc(alg.Applicability, roleApplicability,
			fmt.Sprintf("%s is the applicability function of algorithm %s.", methodName(alg.Applicability), alg.Name)); err != nil {
			return err
		}
		if err := e.addFunc(alg.Build, roleAlgBuild,
			fmt.Sprintf("%s constructs the physical operator of algorithm %s.", methodName(alg.Build), alg.Name)); err != nil {
			return err
		}
		if err := e.addFunc(alg.Delivered, roleAlgDelivered,
			fmt.Sprintf("%s computes the properties delivered by algorithm %s.", methodName(alg.Delivered), alg.Name)); err != nil {
			return err
		}
		if err := e.addFunc(alg.Condition, roleCondition,
			fmt.Sprintf("%s is the condition code of implementation rule %s.", methodName(alg.Condition), alg.Name)); err != nil {
			return err
		}
	}
	for _, enf := range e.spec.Enforcers {
		if err := e.addFunc(enf.Relax, roleEnfRelax,
			fmt.Sprintf("%s relaxes a requirement that enforcer %s can establish.", methodName(enf.Relax), enf.Name)); err != nil {
			return err
		}
		if err := e.addFunc(enf.Cost, roleEnfCost,
			fmt.Sprintf("%s is the cost function of enforcer %s.", methodName(enf.Cost), enf.Name)); err != nil {
			return err
		}
		if err := e.addFunc(enf.Build, roleEnfBuild,
			fmt.Sprintf("%s constructs the physical operator of enforcer %s.", methodName(enf.Build), enf.Name)); err != nil {
			return err
		}
		if err := e.addFunc(enf.Delivered, roleEnfDelivered,
			fmt.Sprintf("%s computes the properties delivered by enforcer %s.", methodName(enf.Delivered), enf.Name)); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) p(format string, args ...any) {
	fmt.Fprintf(&e.b, format+"\n", args...)
}

func (e *emitter) emit() string {
	s := e.spec
	e.p("// Code generated by volcano-gen from the %s model specification. DO NOT EDIT.", s.Model)
	e.p("")
	e.p("// Package %s is a query optimizer for the %s data model, produced", s.Model, s.Model)
	e.p("// by the Volcano optimizer generator. It wires the model's operators,")
	e.p("// transformation rules, implementation rules, and enforcers to the")
	e.p("// model-independent search engine; the data-model-specific decisions")
	e.p("// (costs, properties, applicability, condition code) are delegated to")
	e.p("// the Support interface, which the optimizer implementor provides.")
	e.p("package %s", s.Model)
	e.p("")
	e.p("import \"repro/internal/core\"")
	e.p("")

	// Operator kinds.
	e.p("// Operator kinds of the %s logical algebra, in declaration order.", s.Model)
	e.p("const (")
	for i, op := range s.Operators {
		if i == 0 {
			e.p("Kind%s core.OpKind = iota + 1", op.Name)
		} else {
			e.p("Kind%s", op.Name)
		}
	}
	e.p(")")
	e.p("")

	// Support interface.
	e.p("// Support is the data-model-specific code the optimizer implementor")
	e.p("// supplies before optimizer generation: property and cost functions,")
	e.p("// applicability functions, and condition code, plus the cost and")
	e.p("// physical-property abstract data types.")
	e.p("type Support interface {")
	e.p("core.CostModel")
	e.p("")
	e.p("// DeriveLogicalProps computes the logical properties of an")
	e.p("// expression; it encapsulates selectivity estimation.")
	e.p("DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps")
	e.p("// AnyProps returns the vacuous physical property vector.")
	e.p("AnyProps() core.PhysProps")
	names := make([]string, 0, len(e.funcs))
	for n := range e.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := e.funcs[n]
		e.p("// %s", f.doc)
		e.p("%s%s", f.name, roleSignatures[f.role])
	}
	e.p("}")
	e.p("")

	// Default physical operator types.
	for _, alg := range s.Algorithms {
		if alg.Build != "" {
			continue
		}
		e.emitDefaultOp(alg.Name, "algorithm")
	}
	for _, enf := range s.Enforcers {
		if enf.Build != "" {
			continue
		}
		e.emitDefaultOp(enf.Name, "enforcer")
	}

	// Model type.
	e.p("// Model is the generated optimizer model: the core.Model the search")
	e.p("// engine is linked with.")
	e.p("type Model struct {")
	e.p("s Support")
	e.p("transforms []*core.TransformRule")
	e.p("impls []*core.ImplRule")
	e.p("enforcers []*core.Enforcer")
	e.p("}")
	e.p("")
	e.p("var _ core.Model = (*Model)(nil)")
	e.p("")
	e.p("// New binds the generated rule set to the implementor's support code.")
	e.p("func New(s Support) *Model {")
	e.p("m := &Model{s: s}")

	e.p("m.transforms = []*core.TransformRule{")
	for _, tr := range s.Transforms {
		e.emitTransform(tr)
	}
	e.p("}")

	e.p("m.impls = []*core.ImplRule{")
	for _, alg := range s.Algorithms {
		e.emitAlgorithm(alg)
	}
	e.p("}")

	e.p("m.enforcers = []*core.Enforcer{")
	for _, enf := range s.Enforcers {
		e.emitEnforcer(enf)
	}
	e.p("}")
	e.p("return m")
	e.p("}")
	e.p("")

	e.p("// Name returns the model name.")
	e.p("func (m *Model) Name() string { return %q }", s.Model)
	e.p("")
	e.p("// DeriveLogicalProps delegates to the support code.")
	e.p("func (m *Model) DeriveLogicalProps(op core.LogicalOp, inputs []core.LogicalProps) core.LogicalProps {")
	e.p("return m.s.DeriveLogicalProps(op, inputs)")
	e.p("}")
	e.p("")
	e.p("// TransformationRules returns the generated transformation rules.")
	e.p("func (m *Model) TransformationRules() []*core.TransformRule { return m.transforms }")
	e.p("")
	e.p("// ImplementationRules returns the generated implementation rules.")
	e.p("func (m *Model) ImplementationRules() []*core.ImplRule { return m.impls }")
	e.p("")
	e.p("// Enforcers returns the generated enforcers.")
	e.p("func (m *Model) Enforcers() []*core.Enforcer { return m.enforcers }")
	e.p("")
	e.p("// AnyProps delegates to the support code.")
	e.p("func (m *Model) AnyProps() core.PhysProps { return m.s.AnyProps() }")
	e.p("")
	e.p("// Costs delegates to the support code's cost declaration")
	e.p("// (core.CostsOf), the cost type the search engine is instantiated for.")
	e.p("func (m *Model) Costs() core.CostSpace { return m.s.Costs() }")
	e.p("")
	// The spec hash covers everything emitted so far — operator kinds,
	// rule wiring, and support signatures — so any regeneration that
	// changes the optimizer's behavior also changes the version token.
	specHash := fnv1a(e.b.String())
	e.p("var _ core.Versioned = (*Model)(nil)")
	e.p("")
	e.p("// Version returns the model's version token: a fingerprint of the")
	e.p("// generated rule set, mixed with the support code's own token when")
	e.p("// the Support implementation also implements core.Versioned (e.g. to")
	e.p("// reflect catalog or statistics changes). Plan caches key entries by")
	e.p("// this token, so regenerating the optimizer orphans cached plans.")
	e.p("func (m *Model) Version() uint64 {")
	e.p("const specHash = 0x%016x", specHash)
	e.p("if v, ok := m.s.(core.Versioned); ok {")
	e.p("return specHash ^ (v.Version() * 0x9E3779B185EBCA87)")
	e.p("}")
	e.p("return specHash")
	e.p("}")
	e.p("")
	e.p("// anyInputs builds one vacuous property requirement per input; it is")
	e.p("// the default applicability result for algorithms whose specification")
	e.p("// names no applicability function.")
	e.p("func anyInputs(s Support, n int) []core.InputReq {")
	e.p("req := make([]core.PhysProps, n)")
	e.p("for i := range req { req[i] = s.AnyProps() }")
	e.p("return []core.InputReq{{Required: req}}")
	e.p("}")
	return e.b.String()
}

func (e *emitter) emitDefaultOp(name, kind string) {
	typ := exportName(name) + "Op"
	e.p("// %s is the generated physical operator of %s %s.", typ, kind, name)
	e.p("type %s struct{}", typ)
	e.p("")
	e.p("// Name returns %q.", strings.ToLower(name))
	e.p("func (*%s) Name() string { return %q }", typ, strings.ToLower(name))
	e.p("")
	e.p("// String returns %q.", strings.ToLower(name))
	e.p("func (*%s) String() string { return %q }", typ, strings.ToLower(name))
	e.p("")
}

// fnv1a hashes a string with 64-bit FNV-1a, the spec-fingerprint hash
// emitted into generated Version methods.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// exportName turns SNAKE_CASE into CamelCase.
func exportName(s string) string {
	parts := strings.Split(strings.ToLower(s), "_")
	for i, p := range parts {
		if p != "" {
			parts[i] = strings.ToUpper(p[:1]) + p[1:]
		}
	}
	return strings.Join(parts, "")
}

// patternCode renders a pattern as a core.P/core.Leaf literal.
func patternCode(n *PatNode) string {
	if n.IsVar() {
		return "core.Leaf()"
	}
	if len(n.Children) == 0 {
		return fmt.Sprintf("core.P(Kind%s)", n.Op)
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = patternCode(c)
	}
	return fmt.Sprintf("core.P(Kind%s, %s)", n.Op, strings.Join(parts, ", "))
}

// bindingPaths maps labels and variables of a pattern to binding access
// expressions rooted at "b".
func bindingPaths(n *PatNode, path string, labels, vars map[string]string) {
	if n.IsVar() {
		vars[n.Var] = path
		return
	}
	if n.Label != "" {
		labels[n.Label] = path
	}
	for i, c := range n.Children {
		bindingPaths(c, fmt.Sprintf("%s.Children[%d]", path, i), labels, vars)
	}
}

// substCode renders a substitute as ctx.Node/ctx.ClassRef construction
// reusing matched operator instances through their binding paths.
func substCode(n *PatNode, labels, vars map[string]string) string {
	if n.IsVar() {
		return fmt.Sprintf("ctx.ClassRef(%s.Group)", vars[n.Var])
	}
	op := fmt.Sprintf("%s.Expr.Op", labels[n.Label])
	if len(n.Children) == 0 {
		return fmt.Sprintf("ctx.Node(%s)", op)
	}
	parts := make([]string, len(n.Children))
	for i, c := range n.Children {
		parts[i] = substCode(c, labels, vars)
	}
	return fmt.Sprintf("ctx.Node(%s, %s)", op, strings.Join(parts, ", "))
}

func (e *emitter) emitTransform(tr Transform) {
	labels, vars := map[string]string{}, map[string]string{}
	bindingPaths(tr.Pattern, "b", labels, vars)
	e.p("{")
	e.p("Name: %q,", tr.Name)
	e.p("Pattern: %s,", patternCode(tr.Pattern))
	if tr.Condition != "" {
		e.p("Condition: s.%s,", methodName(tr.Condition))
	}
	e.p("Apply: func(ctx *core.RuleContext, b *core.Binding) []*core.ExprTree {")
	unguarded := true
	for _, sub := range tr.Substs {
		if sub.Condition != "" {
			unguarded = false
		}
	}
	if len(tr.Substs) == 1 && unguarded {
		e.p("return ctx.Substitutes(%s)", substCode(tr.Substs[0].Node, labels, vars))
	} else {
		e.p("var out [%d]*core.ExprTree", len(tr.Substs))
		e.p("n := 0")
		for _, sub := range tr.Substs {
			if sub.Condition != "" {
				e.p("if s.%s(ctx, b) {", methodName(sub.Condition))
			}
			e.p("out[n] = %s", substCode(sub.Node, labels, vars))
			e.p("n++")
			if sub.Condition != "" {
				e.p("}")
			}
		}
		e.p("return ctx.Substitutes(out[:n]...)")
	}
	e.p("},")
	e.p("Promise: %d,", tr.Promise)
	e.p("},")
}

// leafCount counts a pattern's variables: the algorithm's input count.
func leafCount(n *PatNode) int {
	if n.IsVar() {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += leafCount(c)
	}
	return total
}

func (e *emitter) emitAlgorithm(alg Algorithm) {
	e.p("{")
	e.p("Name: %q,", alg.Name)
	e.p("Pattern: %s,", patternCode(alg.Pattern))
	if alg.Condition != "" {
		e.p("Condition: s.%s,", methodName(alg.Condition))
	}
	if alg.Applicability != "" {
		e.p("Applicability: s.%s,", methodName(alg.Applicability))
	} else {
		e.p("Applicability: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps) ([]core.InputReq, bool) {")
		e.p("if !required.Equal(s.AnyProps()) { return nil, false }")
		e.p("return anyInputs(s, %d), true", leafCount(alg.Pattern))
		e.p("},")
	}
	e.p("Cost: s.%s,", methodName(alg.Cost))
	if alg.Delivered != "" {
		e.p("Delivered: s.%s,", methodName(alg.Delivered))
	}
	if alg.Build != "" {
		e.p("Build: s.%s,", methodName(alg.Build))
	} else {
		e.p("Build: func(ctx *core.RuleContext, b *core.Binding, required core.PhysProps, alt core.InputReq) core.PhysicalOp {")
		e.p("return &%sOp{}", exportName(alg.Name))
		e.p("},")
	}
	e.p("Promise: %d,", alg.Promise)
	e.p("},")
}

func (e *emitter) emitEnforcer(enf EnforcerDecl) {
	e.p("{")
	e.p("Name: %q,", enf.Name)
	e.p("Relax: s.%s,", methodName(enf.Relax))
	e.p("Cost: s.%s,", methodName(enf.Cost))
	if enf.Delivered != "" {
		e.p("Delivered: s.%s,", methodName(enf.Delivered))
	}
	if enf.Build != "" {
		e.p("Build: s.%s,", methodName(enf.Build))
	} else {
		e.p("Build: func(ctx *core.RuleContext, lp core.LogicalProps, required core.PhysProps) core.PhysicalOp {")
		e.p("return &%sOp{}", exportName(enf.Name))
		e.p("},")
	}
	e.p("Promise: %d,", enf.Promise)
	e.p("},")
}
