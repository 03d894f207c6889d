package fsp

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The textual interchange format is line-oriented:
//
//	fsp Name              # optional header with process name
//	alphabet a b c        # observable actions (tau is implicit)
//	vars x                # optional variable declarations
//	states 4              # number of states, named 0..n-1
//	start 0               # start state (defaults to 0)
//	ext 0 x               # extension of a state (any number of lines)
//	arc 0 a 1             # transition lines; action "tau" is the tau move
//
// Blank lines and '#' comments are ignored. Declarations may appear in any
// order except that "states" must precede "start", "ext" and "arc" lines.

// maxLineBytes bounds one line of the interchange format: a line of this
// many bytes or more (a '\r' before its newline counts) fails with
// bufio.ErrTooLong.
const maxLineBytes = 16 * 1024 * 1024

// Parse reads an FSP in the textual interchange format. It reads r in
// full and parses the text with ParseString.
func Parse(r io.Reader) (*FSP, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	return ParseString(sb.String())
}

// ParseString parses an FSP held in memory. It splits lines and fields in
// place, so the only per-line cost is the directive itself.
func ParseString(s string) (*FSP, error) {
	var p parser
	for len(s) > 0 {
		line := s
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			line, s = s[:i], s[i+1:]
		} else {
			s = ""
		}
		if len(line) >= maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		if err := p.line(line); err != nil {
			return nil, err
		}
	}
	return p.finish()
}

// parser handles ParseString's lines one at a time. Fields are
// substrings of the line; names that outlive the line are copied when the
// alphabet, variable table or process name first stores them.
type parser struct {
	b               *Builder
	name            string
	lineno          int
	pendingAlphabet []string
	pendingVars     []string
	fields          []string // scratch, reused across lines
}

func (p *parser) fail(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.lineno, fmt.Sprintf(format, args...))
}

// line handles one input line (without its newline).
func (p *parser) line(line string) error {
	p.lineno++
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	p.fields = appendFields(p.fields[:0], line)
	fields := p.fields
	if len(fields) == 0 {
		return nil
	}
	b := p.b
	switch fields[0] {
	case "fsp":
		if len(fields) > 1 {
			p.name = strings.Clone(fields[1])
		}
	case "alphabet":
		if b != nil {
			return p.fail("alphabet must precede states")
		}
		if p.pendingAlphabet != nil {
			return p.fail("duplicate alphabet declaration")
		}
		// The builder does not exist until "states"; keep the names
		// (never nil, so a second declaration is caught).
		p.pendingAlphabet = append(make([]string, 0, len(fields)-1), fields[1:]...)
	case "vars":
		if b != nil {
			return p.fail("vars must precede states")
		}
		if p.pendingVars != nil {
			return p.fail("duplicate vars declaration")
		}
		p.pendingVars = append(make([]string, 0, len(fields)-1), fields[1:]...)
	case "states":
		if b != nil {
			return p.fail("duplicate states declaration")
		}
		if len(fields) != 2 {
			return p.fail("states wants one argument")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			return p.fail("invalid state count %q", fields[1])
		}
		b = NewBuilder(p.name)
		p.b = b
		for _, a := range p.pendingAlphabet {
			if a == TauName {
				return p.fail("alphabet must not contain %q", TauName)
			}
			b.Action(a)
		}
		for _, v := range p.pendingVars {
			if _, err := b.vars.Intern(v); err != nil {
				return p.fail("%v", err)
			}
		}
		p.pendingAlphabet, p.pendingVars = nil, nil
		b.AddStates(n)
	case "start":
		if b == nil {
			return p.fail("start before states")
		}
		s, err := parseState(fields, 1, b)
		if err != nil {
			return p.fail("%v", err)
		}
		b.SetStart(s)
	case "ext":
		if b == nil {
			return p.fail("ext before states")
		}
		s, err := parseState(fields, 1, b)
		if err != nil {
			return p.fail("%v", err)
		}
		b.Extend(s, fields[2:]...)
	case "arc":
		if b == nil {
			return p.fail("arc before states")
		}
		if len(fields) != 4 {
			return p.fail("arc wants: arc FROM ACTION TO")
		}
		from, err := parseState(fields, 1, b)
		if err != nil {
			return p.fail("%v", err)
		}
		to, err := parseState(fields, 3, b)
		if err != nil {
			return p.fail("%v", err)
		}
		b.ArcName(from, fields[2], to)
	default:
		return p.fail("unknown directive %q", fields[0])
	}
	if b != nil && b.Err() != nil {
		return p.fail("%v", b.Err())
	}
	return nil
}

// finish builds the process once every line is read.
func (p *parser) finish() (*FSP, error) {
	if p.b == nil {
		return nil, fmt.Errorf("no states declaration found")
	}
	return p.b.Build()
}

// appendFields appends the whitespace-separated fields of s to dst. It
// splits exactly like strings.Fields (ASCII and Unicode spaces alike) but
// reuses dst instead of allocating a slice per line.
func appendFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); {
		c := s[i]
		size := 1
		var space bool
		if c < utf8.RuneSelf {
			space = c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

func parseState(fields []string, idx int, b *Builder) (State, error) {
	if idx >= len(fields) {
		return 0, fmt.Errorf("missing state operand")
	}
	n, err := strconv.Atoi(fields[idx])
	if err != nil || n < 0 || n >= len(b.adj) {
		return 0, fmt.Errorf("invalid state %q", fields[idx])
	}
	return State(n), nil
}

// Format writes f in the textual interchange format. The output is
// canonical: parsing it yields an FSP equal to f up to alphabet ordering.
func Format(w io.Writer, f *FSP) error {
	bw := bufio.NewWriter(w)
	if f.name != "" {
		fmt.Fprintf(bw, "fsp %s\n", f.name)
	}
	if f.alphabet.NumObservable() > 0 {
		names := make([]string, 0, f.alphabet.NumObservable())
		for _, a := range f.alphabet.Observable() {
			names = append(names, f.alphabet.Name(a))
		}
		fmt.Fprintf(bw, "alphabet %s\n", strings.Join(names, " "))
	}
	if f.vars.Len() > 0 {
		fmt.Fprintf(bw, "vars %s\n", strings.Join(f.vars.names, " "))
	}
	fmt.Fprintf(bw, "states %d\n", f.NumStates())
	fmt.Fprintf(bw, "start %d\n", f.start)
	for s := 0; s < f.NumStates(); s++ {
		e := f.ext[s]
		if e.IsEmpty() {
			continue
		}
		names := make([]string, 0, e.Len())
		for _, id := range e.IDs() {
			names = append(names, f.vars.Name(id))
		}
		sort.Strings(names)
		fmt.Fprintf(bw, "ext %d %s\n", s, strings.Join(names, " "))
	}
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.adj[s] {
			fmt.Fprintf(bw, "arc %d %s %d\n", s, f.alphabet.Name(a.Act), a.To)
		}
	}
	return bw.Flush()
}

// FormatString renders f in the textual interchange format.
func FormatString(f *FSP) string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = Format(&sb, f)
	return sb.String()
}
