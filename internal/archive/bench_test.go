package archive

import (
	"testing"
	"time"
)

// BenchmarkArchiveAppend measures the frames append hot path: one
// record of `frames` CAN frames per iteration, written through the
// buffered segment writer. The acceptance target is zero allocations
// per record.
func BenchmarkArchiveAppend(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(benchName("frames", n), func(b *testing.B) {
			dir := b.TempDir()
			w, err := OpenWriter(dir, Options{SegmentBytes: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			frames := mkFrames(n, 0)
			// One untimed append sizes the delta-compressed record
			// exactly (varint widths depend on the frame content).
			if err := w.ArchiveFrames(1, "bench-veh", frames); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(w.size - headerSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.ArchiveFrames(1, "bench-veh", frames); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(n)/b.Elapsed().Seconds(), "frames/sec")
		})
	}
}

func benchName(kind string, n int) string {
	return kind + "-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkArchiveIterate measures the read path over a sealed
// archive: a full-scan query decoding every frame ("decode"), and a
// shard filter that matches no record ("skip"), which still reads and
// checksums every record — what a sharded recheck worker pays for the
// records other workers own. Both report frames/sec over the archive's
// frames.
func BenchmarkArchiveIterate(b *testing.B) {
	dir := b.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	const recs, perRec = 512, 64
	for i := 0; i < recs; i++ {
		if err := w.ArchiveFrames(1, "bench-veh", mkFrames(perRec, time.Duration(i)*time.Second)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		q    Query
		want int
	}{
		{"decode", Query{}, recs * perRec},
		{"skip", Query{Shard: 0, Shards: 2}, 0}, // every record is session 1
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := cat.Iter(bc.q)
				n := 0
				for it.Next() {
					n += len(it.Record().Frames)
				}
				if err := it.Err(); err != nil {
					b.Fatal(err)
				}
				it.Close()
				if n != bc.want {
					b.Fatalf("iterated %d frames, want %d", n, bc.want)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*recs*perRec/b.Elapsed().Seconds(), "frames/sec")
		})
	}
}
