// Package crc32c is the CRC-32C (Castagnoli) that journal segment
// records, page footers and page-file meta slots are checked with.
package crc32c

import "hash/crc32"

var table = crc32.MakeTable(crc32.Castagnoli)

// Sum returns the CRC-32C of p.
func Sum(p []byte) uint32 { return crc32.Checksum(p, table) }

// Update returns crc extended over p.
func Update(crc uint32, p []byte) uint32 { return crc32.Update(crc, table, p) }
