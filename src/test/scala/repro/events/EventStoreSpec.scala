package repro.events

import java.nio.file.{Files, NoSuchFileException, Paths}
import java.time.LocalDate
import java.time.format.DateTimeFormatter

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.attack.AttackDataGen
import repro.core.{Aiql, AiqlConf, BaseLoader, StorePath}
import repro.core.Ast.{AgentIn, TimeAt}

class EventStoreSpec extends SparkSpec {

  private lazy val events = AttackDataGen.events(spark, sf = 0.002, seed = 11).cache()
  private lazy val dir = Files.createTempDirectory("evstore").toString

  test("schema of generated events matches the data model") {
    assert(events.columns.toSeq == EventSchema.columns)
  }

  test("dedup collapses identical interactions keeping the smallest id") {
    val twice = events.limit(50).union(events.limit(50))
    val d = EventStore.dedup(twice)
    assert(d.count() == EventStore.dedup(events.limit(50)).count())
  }

  test("dedup is idempotent") {
    val once = EventStore.dedup(events.limit(200))
    assert(once.count() == EventStore.dedup(once).count())
  }

  test("dedup preserves distinct events") {
    val distinctKeys = events.select(EventSchema.dedupKey.map(org.apache.spark.sql.functions.col): _*)
      .distinct().count()
    assert(EventStore.dedup(events).count() == distinctKeys)
  }

  test("write lays out both partition dimensions") {
    EventStore.write(events, dir)
    val fine = Files.list(Paths.get(s"$dir/by_agent_day")).toArray.map(_.toString)
    assert(fine.exists(_.contains("agent_id=")))
    val days = Files.list(Paths.get(fine.find(_.contains("agent_id=1")).get))
      .toArray.map(_.toString)
    assert(days.exists(_.contains("day=2023-08-01")))
    val coarse = Files.list(Paths.get(s"$dir/by_day")).toArray.map(_.toString)
    assert(coarse.exists(_.contains("day=2023-08-01")))
    assert(!coarse.exists(_.contains("agent_id=")))
  }

  test("read restores all columns in schema order") {
    val back = EventStore.read(spark, dir)
    assert(back.columns.toSeq == EventSchema.columns)
    assert(back.count() == EventStore.dedup(events).count())
  }

  test("pruned read scans fewer files than a full read") {
    val full = EventStore.read(spark, dir)
    val pruned = EventStore.readPruned(spark, dir, Some(Seq(4)), Some(Seq("2023-08-01")))
    assert(pruned.inputFiles.length < full.inputFiles.length)
    assert(pruned.inputFiles.forall(f => f.contains("agent_id=4") && f.contains("day=2023-08-01")))
  }

  test("pruned read returns exactly the partition rows") {
    val expected = EventStore.read(spark, dir)
      .filter("agent_id = 4 and day = '2023-08-01'").count()
    assert(EventStore.readPruned(spark, dir, Some(Seq(4)), Some(Seq("2023-08-01"))).count() == expected)
  }

  test("pruning one dimension only") {
    val byAgent = EventStore.readPruned(spark, dir, Some(Seq(2)), None)
    assert(byAgent.inputFiles.forall(_.contains("agent_id=2")))
    val byDay = EventStore.readPruned(spark, dir, None, Some(Seq("2023-08-02")))
    assert(byDay.inputFiles.forall(_.contains("day=2023-08-02")))
  }

  private val footerReads = Seq(
    ("agent and day", Some(Seq(4)), Some(Seq("2023-08-01"))),
    ("agent only", Some(Seq(2)), None),
    ("day only", None, Some(Seq("2023-08-02"))),
    ("the whole store", None, None),
    ("an agent with no partition", Some(Seq(99)), None),
    ("two agents", Some(Seq(1, 4)), None),
  )

  for ((name, agents, days) <- footerReads) {
    test(s"footer row count equals the pruned read's count: $name") {
      val read = EventStore.readPruned(spark, dir, agents, days)
      val expected = read.count()
      val listed = EventStore.partitions(dir, agents, days)
      assert(listed.map(_._2).sum == expected)
      // the listing names exactly the partitions the read returns rows of
      val keys = read.select("agent_id", "day").distinct().collect().map(r => (r.getInt(0), r.getString(1)))
      assert(listed.map(_._1).toSet == keys.toSet)
      if (agents.contains(Seq(99))) assert(expected == 0)
    }
  }

  test("a pin records its partition's row count") {
    val mdy = DateTimeFormatter.ofPattern("MM/dd/yyyy")
    val loader = new BaseLoader(spark, StorePath(dir), AiqlConf())
    try {
      val parts = EventStore.partitions(dir, Some(Seq(1, 2, 4)), None).map(_._1)
      assert(parts.size > 3)
      for (part @ (a, d) <- parts) {
        val globals = Seq(AgentIn(Seq(a)), TimeAt(LocalDate.parse(d).format(mdy)))
        val expected = EventStore.readPartitions(spark, dir, Seq(part)).count()
        assert(loader.baseEventsWithSize(globals)._2.contains(expected), s"partition $part")
      }
      assert(loader.pinned == parts.toSet)
    } finally loader.close()
  }

  /** The `(agent_id, day) -> rows` lines of a store's catalog. */
  private def catalog(store: String): Map[(Int, String), Long] =
    Files.readAllLines(Paths.get(store, "catalog.tsv")).asScala.map { line =>
      val Array(a, d, n) = line.split('\t')
      (a.toInt, d) -> n.toLong
    }.toMap

  test("the catalog lists exactly the by_agent_day partitions, with their rows") {
    def subdirs(p: java.nio.file.Path) = Files.list(p).iterator.asScala.filter(Files.isDirectory(_)).toSeq
    val leaves = for {
      a <- subdirs(Paths.get(s"$dir/by_agent_day"))
      d <- subdirs(a)
    } yield (a.getFileName.toString.stripPrefix("agent_id=").toInt, d.getFileName.toString.stripPrefix("day="))
    val cat = catalog(dir)
    assert(cat.keySet == leaves.toSet)
    for (part <- Seq(cat.keys.min, cat.keys.max))
      assert(cat(part) == EventStore.readPartitions(spark, dir, Seq(part)).count(), s"partition $part")
  }

  test("rewriting a store replaces its catalog: partitions and sizes follow the new data") {
    val store = Files.createTempDirectory("evrewrite").toString
    EventStore.write(events, store)
    val gone = (4, "2023-08-01")
    def agent4 = EventStore.partitions(store, Some(Seq(4)), None).map(_._1)
    assert(agent4.contains(gone))
    EventStore.write(events.filter(col("agent_id") =!= 4 || col("day") =!= gone._2), store)
    assert(!catalog(store).contains(gone))
    assert(!agent4.contains(gone))
    for ((agents, days) <- Seq((Some(Seq(4)), None), (None, Some(Seq(gone._2))), (None, None)))
      assert(EventStore.partitions(store, agents, days).map(_._2).sum ==
        EventStore.readPruned(spark, store, agents, days).count(), s"$agents $days")
  }

  test("a store without its catalog throws instead of reading as empty") {
    val store = Files.createTempDirectory("evnocat").toString
    EventStore.write(events, store)
    Files.delete(Paths.get(store, "catalog.tsv"))
    val missing = intercept[NoSuchFileException](EventStore.partitions(store, Some(Seq(4)), None))
    assert(missing.getMessage.contains("catalog.tsv"))
    assertThrows[NoSuchFileException](EventStore.partitions(store, None, Some(Seq("2023-08-01"))))
    assertThrows[NoSuchFileException](EventStore.readPruned(spark, store, Some(Seq(4)), None))
    assertThrows[NoSuchFileException](EventStore.read(spark, store))
    val aiql = new Aiql(spark, StorePath(store))
    try assertThrows[NoSuchFileException](
      aiql.query("(at \"08/01/2023\")\nagentid = 4\nproc p write file f as evt\nreturn p"))
    finally aiql.close()
  }

  test("flat store has no partition directories") {
    val flatDir = Files.createTempDirectory("evflat").toString
    EventStore.writeFlat(events, flatDir)
    val entries = Files.list(Paths.get(flatDir)).toArray.map(_.toString)
    assert(!entries.exists(_.contains("agent_id=")))
    assert(EventStore.readFlat(spark, flatDir).count() == EventStore.dedup(events).count())
  }

  test("partitioned and flat stores hold identical data") {
    val flatDir = Files.createTempDirectory("evflat2").toString
    EventStore.writeFlat(events, flatDir)
    val a = EventStore.read(spark, dir).orderBy("event_id")
    val b = EventStore.readFlat(spark, flatDir).orderBy("event_id")
    assert(a.count() == b.count())
    assert(a.limit(100).collect().toSeq == b.limit(100).collect().toSeq)
  }
}
