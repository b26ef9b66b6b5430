package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"

	"modpeg"
)

// referenceParser compiles top in the conformance harness's oracle
// configuration: the baseline transform pipeline on the naive packrat
// engine, which has no dispatch, scan fusion, chunked memo or
// closures. A defect in any of those then shows as a mismatch instead
// of being reproduced by the reference. modules, when non-nil, are
// resolved ahead of the bundled grammars, as the registry does.
func referenceParser(top string, modules map[string]string) (*modpeg.Parser, error) {
	opts := []modpeg.Option{
		modpeg.WithOptimizations(modpeg.BaselineOptimizations()),
		modpeg.WithEngine(modpeg.EngineNaivePackrat()),
	}
	if modules != nil {
		opts = append(opts, modpeg.WithModules(modules))
	}
	p, err := modpeg.New(top, opts...)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", top, err)
	}
	return p, nil
}

var hashSeed = maphash.MakeSeed()

// expect is the reference outcome of one input: a syntax error at
// errPos, or (errPos < 0) a value, kept as a hash so that hundreds of
// large reference values need not stay in memory.
type expect struct {
	errPos int
	value  uint64
}

// parseOutcome splits a parse result into a value or a syntax-error
// position; any other error is returned as is.
func parseOutcome(v modpeg.Value, err error) (modpeg.Value, int, error) {
	if err == nil {
		return v, -1, nil
	}
	var pe *modpeg.ParseError
	if errors.As(err, &pe) {
		return nil, int(pe.Pos), nil
	}
	return nil, 0, err
}

// wireBytes renders v the way a /parse response carries it: the
// server's JSON encoder compacts the value and escapes HTML characters.
func wireBytes(v modpeg.Value) ([]byte, error) {
	js, err := modpeg.ValueToJSONCompact(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(json.RawMessage(js))
}

// wireExpect is the reference outcome of input as a /parse response
// would report it.
func wireExpect(ref *modpeg.Parser, input string) (expect, error) {
	v, pos, err := parseOutcome(ref.Parse("request", input))
	if err != nil || pos >= 0 {
		return expect{errPos: pos}, err
	}
	wire, err := wireBytes(v)
	if err != nil {
		return expect{}, err
	}
	return expect{errPos: -1, value: maphash.Bytes(hashSeed, wire)}, nil
}

// checkWire compares a /parse response with the reference outcome.
func (e expect) checkWire(r parseReply) error {
	switch {
	case e.errPos >= 0 && r.errPos != e.errPos:
		return fmt.Errorf("reference rejects at offset %d, response %s", e.errPos, replyOutcome(r))
	case e.errPos < 0 && r.errPos >= 0:
		return fmt.Errorf("reference parses, response rejects at offset %d", r.errPos)
	case e.errPos < 0 && maphash.Bytes(hashSeed, r.value) != e.value:
		return errors.New("value differs from the reference")
	}
	return nil
}

func replyOutcome(r parseReply) string {
	if r.errPos < 0 {
		return "parses"
	}
	return fmt.Sprintf("rejects at offset %d", r.errPos)
}

// treeExpect is the reference outcome of an in-process parse. Values
// are hashed without their source spans, as ast.Equal compares them:
// an incremental reparse keeps the spans of the revision that first
// parsed a reused subtree.
func treeExpect(v modpeg.Value, err error) (expect, error) {
	v, pos, err := parseOutcome(v, err)
	if err != nil || pos >= 0 {
		return expect{errPos: pos}, err
	}
	var h maphash.Hash
	h.SetSeed(hashSeed)
	hashTree(&h, v)
	return expect{errPos: -1, value: h.Sum64()}, nil
}

// hashTree feeds v's structure and text, but not its spans, to h. Each
// value is tagged with its kind and length, so distinct trees cannot
// produce the same byte stream.
func hashTree(h *maphash.Hash, v modpeg.Value) {
	var n [8]byte
	num := func(x int) {
		binary.LittleEndian.PutUint64(n[:], uint64(x))
		h.Write(n[:])
	}
	switch v := v.(type) {
	case nil:
		h.WriteByte('0')
	case *modpeg.Node:
		if v == nil {
			h.WriteByte('0')
			return
		}
		h.WriteByte('N')
		num(len(v.Name))
		h.WriteString(v.Name)
		num(len(v.Children))
		for _, c := range v.Children {
			hashTree(h, c)
		}
	case *modpeg.Token:
		if v == nil {
			h.WriteByte('0')
			return
		}
		h.WriteByte('T')
		num(len(v.Text))
		h.WriteString(v.Text)
	case modpeg.List:
		h.WriteByte('L')
		num(len(v))
		for _, c := range v {
			hashTree(h, c)
		}
	default:
		s := fmt.Sprintf("%T:%v", v, v)
		h.WriteByte('S')
		num(len(s))
		h.WriteString(s)
	}
}

// checkTree compares an in-process parse result with the reference.
func (e expect) checkTree(v modpeg.Value, err error) error {
	got, err := treeExpect(v, err)
	switch {
	case err != nil:
		return err
	case got.errPos != e.errPos && e.errPos >= 0:
		return fmt.Errorf("reference rejects at offset %d, got offset %d", e.errPos, got.errPos)
	case got.errPos >= 0 && e.errPos < 0:
		return fmt.Errorf("reference parses, got a syntax error at offset %d", got.errPos)
	case got.value != e.value:
		return errors.New("value differs from the reference")
	}
	return nil
}

// parallel runs fn(i) for i in [0, n) on at most `clients` goroutines
// and returns the first error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  = make(chan int)
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}
