// Fixture corpus for the unreached analyzer: a program whose functions
// are reached through a direct call, a package-level variable, an
// interface method, the second of two init functions, an instantiated
// generic type and an annotated function's body, next to functions that
// nothing reaches.
package main

func main() {
	called()
	var s shape = square{}
	_ = s.area()
	l := &list[int]{}
	l.push(1)
}

// called is reached by a direct call from main.
func called() {}

// orphan is reached by nothing; neither is what only it calls.
func orphan() { orphanCallee() } // want `unreached\.orphan is reached from no main`

func orphanCallee() {} // want `unreached\.orphanCallee is reached from no main`

// testOnly is called only from a _test.go file, which does not count.
func testOnly() {} // want `unreached\.testOnly is reached from no main`

// table is a package-level variable: its initializer's references reach.
var table = map[string]func() int{"a": viaTable}

func viaTable() int { return viaTableCallee() }

func viaTableCallee() int { return 1 }

type shape interface{ area() float64 }

type square struct{}

// area satisfies shape, so an interface call may dispatch to it.
func (square) area() float64 { return viaInterface() }

func viaInterface() float64 { return 1 }

// perimeter satisfies no interface and nothing calls it.
func (square) perimeter() float64 { return 4 } // want `\(unreached\.square\)\.perimeter is reached from no main`

func init() {}

// The second init must be a root of its own, not folded into the first.
func init() { viaSecondInit() }

func viaSecondInit() {}

type list[T any] struct{ items []T }

// push is reached through list[int], an instantiation.
func (l *list[T]) push(x T) {
	l.items = append(l.items, x)
	l.grow()
}

func (l *list[T]) grow() {}

func (l *list[T]) pop() {} // want `\(\*unreached\.list\[T\]\)\.pop is reached from no main`

// annotated is kept although nothing reaches it; what it calls is
// therefore reached.
//
//ivn:allow unreached the reference a test compares the fast path against
func annotated() int { return annotatedCallee() }

func annotatedCallee() int { return 2 }
