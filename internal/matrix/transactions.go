package matrix

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadNamedTransactions parses the classic market-basket interchange
// format: one transaction per line, whitespace-separated item names
// (arbitrary strings). It returns the matrix (rows = transactions,
// columns = items in first-appearance order) and the item name of each
// column. Blank lines are empty transactions; lines starting with '#'
// are comments.
func ReadNamedTransactions(r io.Reader) (*Matrix, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	index := map[string]int32{}
	var names []string
	var rows [][]int32
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			continue
		}
		var row []int32
		for _, item := range strings.Fields(line) {
			c, ok := index[item]
			if !ok {
				c = int32(len(names))
				index[item] = c
				names = append(names, item)
			}
			row = append(row, c)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("matrix: reading transactions: %w", err)
	}
	m, err := FromRows(len(names), rows)
	if err != nil {
		return nil, nil, err
	}
	_ = lineNo
	return m, names, nil
}
