package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Locks enforces the locking protocol in one walk per function. Lock
// classes declared with //tcache:lockclass may only be acquired in a
// declared //tcache:lockorder sequence, never twice (the "at most one
// of each kind" rule), and never in an undeclared pairing; a call to a
// //tcache:holds function needs those classes held. While any class is
// held, nothing blocking or externally visible may run: completion-hook
// invocation (any value of a //tcache:hook type), potentially blocking
// channel sends, net/os/io I/O, time.Sleep, and the blocking
// lock.Manager.Acquire.
//
// Functions annotated //tcache:holds are checked with those classes
// held at entry, and call sites are checked against each callee's
// transitive may-acquire and may-block summaries — so taking a
// txn-stripe lock and then calling something that locks an entry shard,
// or sends one helper down, is flagged at the call site. Calling a
// //tcache:holds function whose annotation covers every held class
// raises no blocking finding there: that callee's body is audited under
// those classes directly.
var Locks = &Analyzer{
	Name: "locks",
	Doc:  "declared lock-class order, one lock per class, //tcache:holds, and no hook, blocking send or I/O under a held class",
	Run:  runLocks,
}

func runLocks(pass *Pass) error {
	m := buildLockModel(pass)
	if len(m.classOf) == 0 {
		return nil
	}
	for _, fi := range m.funcs {
		h := &locksHandler{pass: pass, m: m, fname: fi.decl.Name.Name}
		w := &lockWalker{model: m, handler: h}
		w.walkFunc(fi.decl.Body, m.holdsSet(fi.obj))
	}
	return nil
}

type locksHandler struct {
	pass  *Pass
	m     *lockModel
	fname string
}

func (h *locksHandler) acquire(class string, pos token.Pos, held stringSet) {
	h.checkAcquire(class, pos, held, "")
}

// checkAcquire validates acquiring class against the held set. via names
// the callee when the acquisition is indirect (through a call summary).
func (h *locksHandler) checkAcquire(class string, pos token.Pos, held stringSet, via string) {
	suffix := ""
	if via != "" {
		suffix = " (via call to " + via + ")"
	}
	if held[class] {
		h.pass.Reportf(pos, "%s: acquiring lock class %q while already holding one%s: at most one lock of each kind may be held", h.fname, class, suffix)
		return
	}
	for _, hc := range held.sorted() {
		switch {
		case h.m.orderOK[hc][class]:
			// declared hc < class: this pairing is legal
		case h.m.orderOK[class][hc]:
			h.pass.Reportf(pos, "%s: acquiring lock class %q while holding %q inverts the declared lock order %q < %q%s", h.fname, class, hc, class, hc, suffix)
		default:
			h.pass.Reportf(pos, "%s: acquiring lock class %q while holding %q: no //tcache:lockorder relation declares this pairing%s", h.fname, class, hc, suffix)
		}
	}
}

func (h *locksHandler) send(s *ast.SendStmt, held stringSet) {
	if len(held) > 0 {
		h.pass.Reportf(s.Pos(), "%s: potentially blocking channel send while holding lock class(es) %s", h.fname, heldList(held))
	}
}

func (h *locksHandler) call(fn *types.Func, call *ast.CallExpr, held stringSet) {
	if fn == nil {
		if name, ok := h.m.hookInvocation(call); ok && len(held) > 0 {
			h.pass.Reportf(call.Pos(), "%s: invoking //tcache:hook type %s while holding lock class(es) %s: hooks run user code and must be emitted outside all locks", h.fname, name, heldList(held))
		}
		return
	}
	required, annotated := h.m.holds[fn]
	for _, c := range required {
		if !held[c] {
			h.pass.Reportf(call.Pos(), "%s: call to %s requires lock class %q held (//tcache:holds %s)", h.fname, fn.Name(), c, strings.Join(required, ","))
		}
	}
	for _, c := range h.m.summaries[fn].sorted() {
		h.checkAcquire(c, call.Pos(), held, fn.Name())
	}
	if len(held) == 0 {
		return
	}
	if e := directEffect(fn); e != "" {
		h.pass.Reportf(call.Pos(), "%s: %s (%s.%s) while holding lock class(es) %s", h.fname, e, fn.Pkg().Name(), fn.Name(), heldList(held))
		return
	}
	// A callee audited to run under every held class is checked (and,
	// where deliberate, suppressed) in its own body.
	covered := annotated
	for c := range held {
		covered = covered && slices.Contains(required, c)
	}
	if covered {
		return
	}
	for _, e := range h.m.effects[fn].sorted() {
		h.pass.Reportf(call.Pos(), "%s: call to %s may perform %s while holding lock class(es) %s", h.fname, fn.Name(), e, heldList(held))
	}
}

func heldList(held stringSet) string { return strings.Join(held.sorted(), ",") }
