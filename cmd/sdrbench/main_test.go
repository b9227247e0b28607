package main

import (
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
)

// documentedIDs returns the ids the package comment lists, in order,
// without all.
func documentedIDs(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, m := range regexp.MustCompile(`(?m)^//\tsdrbench -exp (\S+)`).FindAllStringSubmatch(string(src), -1) {
		for _, id := range strings.Split(m[1], ",") {
			if id != "all" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		t.Fatal("the package comment lists no experiment")
	}
	return ids
}

// recording is the experiment table with each run replaced by one that
// appends its id to *ran.
func recording(ran *[]string) []experiment {
	exps := experiments(bench.DefaultScale(), 1)
	for i := range exps {
		id := exps[i].id
		exps[i].run = func() error { *ran = append(*ran, id); return nil }
	}
	return exps
}

func TestDocumentedIDsResolve(t *testing.T) {
	for _, id := range documentedIDs(t) {
		var ran []string
		if code := runList(id, recording(&ran), io.Discard, io.Discard); code != 0 || len(ran) != 1 || ran[0] != id {
			t.Errorf("-exp %s: exit %d, ran %v", id, code, ran)
		}
	}
}

func TestAllRunsDocumentedOrder(t *testing.T) {
	var ran []string
	if code := runList("all", recording(&ran), io.Discard, io.Discard); code != 0 {
		t.Fatalf("-exp all: exit %d", code)
	}
	if want := documentedIDs(t); !reflect.DeepEqual(ran, want) {
		t.Errorf("-exp all ran %v, the package comment documents %v", ran, want)
	}
}

func TestUnknownIDRunsNothing(t *testing.T) {
	for _, list := range []string{"nope", "nope,fig2", "fig2,nope", "fig2,table1,nope"} {
		var ran []string
		var stderr strings.Builder
		if code := runList(list, recording(&ran), io.Discard, &stderr); code != 1 || len(ran) != 0 {
			t.Errorf("-exp %s: exit %d, ran %v; want exit 1 and nothing run", list, code, ran)
		}
		if !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
			t.Errorf("-exp %s: stderr %q", list, stderr.String())
		}
	}
}
