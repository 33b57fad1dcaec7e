package lint

// output.go renders a run's diagnostics as a SARIF 2.1.0 log for
// code-scanning UIs. The log is byte-stable — same tree, same bytes —
// because CI diffs it between runs. Each finding carries a stable ID
// derived from (rule, file, message, occurrence index) but *not* the
// line number, so unrelated edits above a finding don't change its
// identity and scanning UIs can track it across commits.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
)

// Finding is one diagnostic in report form, with a stable identity and
// a module-relative slash-separated path.
type Finding struct {
	// ID is the finding's stable identity: the first 12 hex digits of
	// sha256 over rule, relative file, message, and the occurrence index
	// among identical (rule, file, message) triples. Line numbers are
	// deliberately excluded.
	ID string
	// Rule names the analyzer.
	Rule string
	// File is the module-relative path, slash-separated.
	File string
	// Line and Col locate the finding (1-based).
	Line int
	Col  int
	// Msg describes the finding.
	Msg string
}

// Report is a full detlint run over one module.
type Report struct {
	// Findings lists every unsuppressed finding in position order.
	Findings []Finding
}

// detlintVersion names the analyzer release in SARIF logs.
const detlintVersion = "detlint/9.0.0"

// NewReport converts Run's diagnostics into report form, relativizing
// file names against the module root.
//
//detlint:allow facadeparity lint is a development tool consumed through cmd/detlint, not a simulation module the api facade fronts
func NewReport(root string, diags []Diagnostic) *Report {
	r := &Report{Findings: make([]Finding, 0, len(diags))}
	occ := make(map[string]int)
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		key := d.Rule + "|" + file + "|" + d.Msg
		n := occ[key]
		occ[key] = n + 1
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%d", key, n)))
		r.Findings = append(r.Findings, Finding{
			ID:   fmt.Sprintf("%x", sum[:6]),
			Rule: d.Rule,
			File: file,
			Line: d.Pos.Line,
			Col:  d.Pos.Column,
			Msg:  d.Msg,
		})
	}
	return r
}

// sarif* mirror the minimal subset of the SARIF 2.1.0 schema the report
// needs; field order in the structs fixes the marshaled byte order.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name            string      `json:"name"`
	SemanticVersion string      `json:"semanticVersion"`
	Rules           []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID              string            `json:"ruleId"`
	Level               string            `json:"level"`
	Message             sarifMessage      `json:"message"`
	Locations           []sarifLocation   `json:"locations"`
	PartialFingerprints map[string]string `json:"partialFingerprints"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// SARIF renders the report as a SARIF 2.1.0 log. The rule catalogue
// comes from analyzers so the log is self-describing; the stable finding
// ID rides in partialFingerprints for cross-commit result matching.
func (r *Report) SARIF(analyzers []*Analyzer) ([]byte, error) {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	results := make([]sarifResult, 0, len(r.Findings))
	for _, f := range r.Findings {
		results = append(results, sarifResult{
			RuleID:  f.Rule,
			Level:   "error",
			Message: sarifMessage{Text: f.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       f.File,
						URIBaseID: "SRCROOT",
					},
					Region: sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
			PartialFingerprints: map[string]string{"detlintFindingId/v1": f.ID},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:            "detlint",
				SemanticVersion: strings.TrimPrefix(detlintVersion, "detlint/"),
				Rules:           rules,
			}},
			Results: results,
		}},
	}
	b, err := json.MarshalIndent(&log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
