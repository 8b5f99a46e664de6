// Command tool is the only caller of lib.ForTool: a load without it
// cannot tell that ForTool is alive.
package main

import "impress/internal/analysis/deadexport/testdata/src/deadfix/internal/lib"

func main() { println(lib.ForTool()) }
